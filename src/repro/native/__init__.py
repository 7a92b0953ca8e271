"""Runtime-compiled native kernels (shared build/cache machinery)."""
