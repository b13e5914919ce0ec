"""Machine fingerprint and process memory readings."""

from __future__ import annotations

import importlib.util
import os
import platform
import resource


def fingerprint() -> dict:
    """What a result was measured on: cores, CPU model, Python, numpy, numba."""
    import numpy

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "platform": platform.platform(),
    }


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size (VmHWM) of ``pid`` (default: this process) in MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is not None:
        raise RuntimeError(f"cannot read the peak RSS of process {pid}")
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
