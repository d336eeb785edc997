"""modelvault: seal model files into encrypted artifacts, unseal in memory.

The pieces, bottom up:

* :mod:`modelvault._files` -- private: the file I/O and phase timing that
  sealing, unsealing, the CLI and the benchmark share
* :mod:`modelvault.crypto` -- AES-256 primitives and key handling
* :mod:`modelvault.container` -- the versioned sealed-container layout
* :mod:`modelvault.sealer` -- file in, sealed artifact plus manifest out
* :mod:`modelvault.unsealer` -- sealed bytes back to an in-memory model
* :mod:`modelvault.key_service` / :mod:`modelvault.key_client` -- JWT-gated
  key delivery over HTTP
* :mod:`modelvault.bench` -- the timing harness
* :mod:`modelvault.cli` -- the ``mvc`` command
"""

from . import errors
from .bench import (BenchRecord, DEFAULT_SIZES_MB, LinearFit, emit_table,
                    fit_linear, format_fit, generate_synthetic_model,
                    mb_to_bytes, run_bench)
from .container import (CHUNK_ENTRY_SIZE, DEFAULT_CHUNK_SIZE, HEADER_SIZE,
                        MAGIC, VERSION, ContainerHeader, SealedFormat,
                        chunk_count_for, chunk_slices, decode, detect_format)
from .crypto import (BLOCK_SIZE, KEY_BYTES, NONCE_BYTES, PASSPHRASE_CHARS,
                     CipherMode, KeyMaterial, ctr_crypt, decrypt_block,
                     derive_key, ecb_decrypt, ecb_encrypt, encrypt_block,
                     load_key_hex, sha256)
from .key_client import fetch_key
from .key_service import (KEY_PATH, KeyService, ServiceConfig,
                          handle_key_request, issue_token, verify_token)
from .sealer import MIN_CHUNK_SIZE, SealReport, seal, seal_file
from .unsealer import (ModelBlob, UnsealHandle, UnsealProgress, unseal,
                       unseal_background, unseal_file, unseal_parallel)

__version__ = "0.1.0"

__all__ = [
    "BLOCK_SIZE", "CHUNK_ENTRY_SIZE", "DEFAULT_CHUNK_SIZE",
    "DEFAULT_SIZES_MB", "HEADER_SIZE", "KEY_BYTES", "KEY_PATH", "MAGIC",
    "MIN_CHUNK_SIZE", "NONCE_BYTES", "PASSPHRASE_CHARS", "VERSION",
    "BenchRecord", "CipherMode", "ContainerHeader",
    "KeyMaterial", "KeyService", "LinearFit", "ModelBlob", "SealReport",
    "SealedFormat", "ServiceConfig", "UnsealHandle", "UnsealProgress",
    "chunk_count_for", "chunk_slices", "ctr_crypt", "decode",
    "decrypt_block", "derive_key", "detect_format",
    "ecb_decrypt", "ecb_encrypt", "emit_table", "encrypt_block",
    "errors", "fetch_key", "fit_linear", "format_fit",
    "generate_synthetic_model", "handle_key_request", "issue_token",
    "load_key_hex", "mb_to_bytes", "run_bench", "seal", "seal_file",
    "sha256", "unseal", "unseal_background", "unseal_file",
    "unseal_parallel", "verify_token",
]
