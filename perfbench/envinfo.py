"""Environment and host-calibration record written into every result.

Nothing here pins BLAS threads: the benchmark measures what a user gets
with the library defaults, and records the thread count it ran at.
"""

from __future__ import annotations

import ctypes
import os
import pathlib
import platform
import statistics
import time

import numpy as np

_BLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS loaded into this process, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_QUERIES:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    out = {}
    base = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            out[f"L{level}-{kind}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    return out


def environment() -> dict:
    """The run's provenance (git SHA, python, numpy, backend — the fields
    the run ledger records, from the same code) plus the host and BLAS."""
    import scipy

    from repro.observability.runlog import _provenance

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        **_provenance(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "caches": _caches(),
        "scipy": scipy.__version__,
        "repro_env": {
            k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")
        },
    }


def _median_time(fn, min_reps: int = 3, budget_s: float = 0.15) -> float:
    times = []
    t_end = time.perf_counter() + budget_s
    while len(times) < min_reps or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def calibrate(block: tuple[int, ...], fft) -> dict[str, float]:
    """FFT throughput at the workload's orbital block and DGEMM rate.

    ``block`` is ``(bands, nx, ny, nz)``; ``fft`` is the module the
    workload's transforms go through.  Throughput counts band × grid
    points per transform, the unit of ``dft.fft_mpts_per_s``.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal(block) + 1j * rng.standard_normal(block)
    axes = tuple(range(1, len(block)))
    t_fft = _median_time(lambda: fft.ifftn(fft.fftn(a, axes=axes), axes=axes))
    n = 512
    x = rng.standard_normal((n, n))
    y = rng.standard_normal((n, n))
    t_gemm = _median_time(lambda: x @ y)
    return {
        "fft_block": list(block),
        "fft_mpts_per_s": 2 * a.size / t_fft / 1e6,
        "dgemm_n": n,
        "dgemm_gflops": 2.0 * n**3 / t_gemm / 1e9,
    }
