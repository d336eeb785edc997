"""Seal a model buffer, then unseal it three ways.

Walks the core pipeline end to end: chunked container sealing,
in-memory unsealing, the legacy raw mode, and the background variant
with progress reporting. Run directly:

    python3 demos/seal_unseal_demo.py
"""

import random

from modelvault import (CipherMode, SealedFormat, derive_key, seal, unseal,
                        unseal_background, unseal_parallel)

# ---------------------------------------------------------------------
# A stand-in model: 3 MiB of seeded pseudo-random bytes. Any file you
# would otherwise load with your ML runtime works the same way.
model = random.Random(7).randbytes(3 * 1024 * 1024)
key = derive_key("pvxq81gur0m4hawj")  # exactly 16 characters

# ---------------------------------------------------------------------
# Seal into a chunked container. The report splits encryption time from
# storage time; storage is zero here because nothing touched disk.
sealed, report = seal(model, key)
print("sealed container:", report.manifest())

# ---------------------------------------------------------------------
# Unseal in memory. The container's chunk table lets every chunk decrypt
# independently; they run in order on this thread, because AES holds the
# GIL and threads would not run two chunks at once.
blob = unseal_parallel(sealed, key)
print("round trip ok:", bytes(blob.data) == model)
print("digest:", blob.digest.hex())

# The blob owns its buffer. release() zero-fills it so the plaintext
# does not linger in memory after the model has been handed off.
view = blob.data
blob.release()
print("after release, buffer is zeroed:", view[:8].tobytes().hex())

# ---------------------------------------------------------------------
# Raw mode: a bare ECB+PKCS#7 blob with no header, for compatibility
# with pre-container artifacts. No framing means no fingerprint check
# and no chunks; a wrong key shows up as a padding failure.
raw, raw_report = seal(model, key, mode=CipherMode.RAW_ECB_PKCS7)
print("raw .dat size:", raw_report.output_len,
      "(plaintext", len(model), "+ padding)")
blob = unseal(raw, key, SealedFormat.RAW_DAT)
print("raw round trip ok:", blob.to_bytes() == model)
blob.release()

# ---------------------------------------------------------------------
# Background unsealing: returns a handle immediately, emits one
# progress event per finished chunk, and delivers the blob (or the
# error) to on_done. cancel() would stop it mid-flight and wipe.
def show_progress(p):
    print(f"  progress: {p.chunks_done}/{p.chunks_total} chunks,"
          f" {p.bytes_done} bytes")

def on_done(blob, error):
    if error is None:
        print("background unseal done, digest", blob.digest.hex()[:16], "...")
        blob.release()
    else:
        print("background unseal failed:", error)

handle = unseal_background(sealed, key, on_progress=show_progress,
                           on_done=on_done)
print("handle returned while decryption still runs; state:", handle.state())
handle.wait(timeout=30)
print("final state:", handle.state())
