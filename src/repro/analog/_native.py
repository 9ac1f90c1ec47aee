"""Native level-program kernel: build, load and select it once per process.

:class:`repro.analog.graph.FrozenGraph` settles a graph either through the
NumPy level program (the reference) or through ``_levelprog.c``, which
evaluates a whole batched solve in one C call.  The call goes through
:mod:`ctypes`, which releases the GIL for its duration.

The first solve of a process selects the kernel, from what it can
observe:

* a C compiler is on ``PATH`` (``cc``, ``gcc`` or ``clang``);
* the library builds (or is already built) in the per-user cache
  directory, ``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``, under a
  name keyed by a sha256 of the source, the compiler flags and the
  platform.  The compiler writes a temporary file that is then renamed
  into place, so concurrent processes never load a partial library;
* it loads, and its segment reductions reproduce NumPy's
  ``add``/``maximum``/``minimum.reduceat`` bit for bit on a probe set
  (signed zeros and NaNs included).  NumPy reduces a contiguous
  max/min tail in SIMD lanes whose width and tie rule follow the CPU
  target it dispatched to, and a strided one in unrolled scalar code,
  so the probe also fixes the order of each.

If any step fails the NumPy program serves every solve.  There is no
switch: :func:`numpy_reference` is the one private seam that forces the
NumPy program, for the equivalence tests and for benchmark cases that
must time what the NumPy program costs.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

import numpy as np
from numpy.typing import ArrayLike, NDArray

SOURCE = Path(__file__).with_name("_levelprog.c")

#: No ``-ffast-math`` or ``-march=native``: contracting ``(x * gain) +
#: offset`` into an FMA, or reassociating a sum, changes result bits.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

COMPILERS = ("cc", "gcc", "clang")

#: Seconds the compiler may take before the build counts as failed.
BUILD_TIMEOUT_S = 120.0

#: Segment reduction codes of ``repro_reduce``.
OP_ADD, OP_MAX, OP_MIN = 0, 1, 2

#: NumPy's max/min tail orders (see _levelprog.c): one scalar pass, the
#: SIMD reduce of a contiguous tail, the unrolled scalar reduce of a
#: strided one.
ORDER_SCALAR, ORDER_LANES, ORDER_UNROLLED = 0, 1, 2

#: Float64 lane counts of NumPy's SIMD targets (2: SSE, NEON, VSX;
#: 4: AVX2; 8: AVX-512) and its scalar unroll factor.
LANE_WIDTHS = (2, 4, 8)
UNROLL = 8

#: NumPy's program gathers ``v[..., src]`` before each reduction, and
#: that gather is contiguous along the reduced axis only for a single
#: row; NumPy reduces a contiguous max/min tail in SIMD lanes and a
#: strided one in a scalar loop.  The probe fixes each order apart, on
#: these batch shapes.
SINGLE_SHAPES: Tuple[Tuple[int, ...], ...] = ((), (1,))
BATCHED_SHAPES: Tuple[Tuple[int, ...], ...] = ((2,),)

#: A max/min reduction order: ``(mode, width, tie_mask)``.
Order = Tuple[int, int, int]

#: A probe reduction: NumPy ufunc, kernel op code, values.
Probe = Tuple[np.ufunc, int, NDArray[np.float64]]

_POINTER = ctypes.c_void_p


class LevelKernel:
    """The loaded library plus NumPy's max/min reduction orders for a
    single-row solve and for a batch."""

    def __init__(self, lib: ctypes.CDLL, single: Order, batched: Order) -> None:
        self.single = single
        self.batched = batched
        self._run = lib.repro_levelprog_run
        self._run.argtypes = [
            _POINTER, _POINTER, _POINTER, _POINTER,
            ctypes.c_int64, ctypes.c_int, ctypes.c_int, ctypes.c_int,
        ]
        self._run.restype = ctypes.c_int
        self._reduce = lib.repro_reduce
        self._reduce.argtypes = [
            ctypes.c_int, _POINTER, ctypes.c_int64, _POINTER,
            ctypes.c_int64, ctypes.c_int, ctypes.c_int, ctypes.c_int,
            _POINTER,
        ]
        self._reduce.restype = ctypes.c_int

    def run(
        self,
        itab: int,
        vtab: int,
        cv: NDArray[np.float64],
        out: NDArray[np.float64],
    ) -> None:
        """Settle every row of ``cv`` into ``out``.

        ``itab``/``vtab`` are the addresses of tables the caller keeps
        alive; ``cv`` and ``out`` must be C-contiguous float64 with
        ``n_const`` and ``n_blocks`` columns (the caller checks).
        """
        batch = out.size // out.shape[-1] if out.shape[-1] else 0
        order = self.single if batch == 1 else self.batched
        _check(self._run(
            itab, vtab, cv.ctypes.data, out.ctypes.data, batch, *order
        ))

    def reduce(
        self,
        op: int,
        values: ArrayLike,
        segment_starts: ArrayLike,
        order: Order,
    ) -> NDArray[np.float64]:
        """Segment reductions of ``values`` at ``segment_starts``, as
        the kernel reduces a lin/max/min segment (``np.<op>.reduceat``'s
        layout)."""
        x = np.ascontiguousarray(values, dtype=np.float64)
        starts = np.ascontiguousarray(segment_starts, dtype=np.int64)
        if x.ndim != 1 or starts.ndim != 1:
            raise ValueError("reduce takes 1-D values and starts")
        if starts.size and not (
            np.all(np.diff(starts) > 0)
            and 0 <= starts[0]
            and starts[-1] < x.size
        ):
            raise ValueError("starts must rise strictly inside the values")
        out = np.empty(starts.size)
        _check(self._reduce(
            op, x.ctypes.data, x.size, starts.ctypes.data, starts.size,
            *order, out.ctypes.data,
        ))
        return out


def _check(status: int) -> None:
    """Raise for a kernel call's failure status."""
    if status == -1:
        raise MemoryError("level-program kernel could not allocate")
    if status != 0:
        raise ValueError("level-program kernel rejected its order")


def cache_dir() -> Path:
    """Per-user directory the built library lives in."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro"


def library_path(compiler: str) -> Path:
    """Cache path of the library built from today's source and flags."""
    digest = hashlib.sha256()
    digest.update(SOURCE.read_bytes())
    for part in (*FLAGS, os.path.basename(compiler),
                 sysconfig.get_platform(), platform.machine()):
        digest.update(b"\0" + part.encode())
    return cache_dir() / f"levelprog-{digest.hexdigest()[:16]}.so"


def _compile(compiler: str, target: Path) -> None:
    """Build the library into ``target`` through a temporary name."""
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=target.stem + "-", suffix=".tmp", dir=target.parent
    )
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *FLAGS, "-o", tmp, str(SOURCE), "-lm"],
            check=True,
            capture_output=True,
            timeout=BUILD_TIMEOUT_S,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load() -> ctypes.CDLL:
    """Load the cached library, building it first if needed."""
    compiler = next(filter(None, map(shutil.which, COMPILERS)), None)
    if compiler is None:
        raise FileNotFoundError("no C compiler on PATH")
    path = library_path(compiler)
    if not path.exists():
        _compile(compiler, path)
    return ctypes.CDLL(str(path))


def _probes(n: int) -> List[Probe]:
    """``(ufunc, op, values)`` whose reductions tell NumPy's orders
    apart.  The sum gets random normals.  Max and min get signed zeros
    alone; signed zeros among values that never win (-1 for max, +1 for
    min) at three densities, which pick the winning zero by the order's
    path; and rare NaNs, which must propagate."""
    rng = np.random.default_rng(20170618)
    zeros = rng.choice(np.array([0.0, -0.0]), size=n)
    probes: List[Probe] = [(np.add, OP_ADD, rng.normal(size=n))]
    for ufunc, op, loser in ((np.maximum, OP_MAX, -1.0),
                             (np.minimum, OP_MIN, 1.0)):
        probes.append((ufunc, op, zeros))
        for density in (0.2, 0.5, 0.8):
            loses = rng.random(n) < density
            probes.append((ufunc, op, np.where(loses, loser, zeros)))
        nans = rng.random(n) < 0.01
        probes.append((ufunc, op, np.where(nans, np.nan, zeros)))
    return probes


def _numpy_bits(
    ufunc: np.ufunc,
    x: NDArray[np.float64],
    starts: NDArray[np.intp],
    shapes: Tuple[Tuple[int, ...], ...],
) -> Optional[NDArray[np.uint64]]:
    """Bits of ``ufunc.reduceat`` over the NumPy program's gather of
    ``x`` tiled to each batch shape, or None unless every row agrees."""
    rows: List[NDArray[np.uint64]] = []
    everything = np.arange(x.size)
    for shape in shapes:
        gathered = np.tile(x, shape + (1,))[..., everything]
        out = ufunc.reduceat(gathered, starts, axis=-1)
        rows.append(out.reshape(-1, starts.size).view(np.uint64))
    stacked = np.concatenate(rows)
    first: NDArray[np.uint64] = stacked[0]
    if not (stacked == first).all():
        return None
    return first


def _match_order(
    kernel: LevelKernel,
    probes: List[Probe],
    starts: NDArray[np.intp],
    shapes: Tuple[Tuple[int, ...], ...],
) -> Optional[Order]:
    """The reduction order that reproduces NumPy on the probe segments
    in these batch shapes, or None when no candidate does."""
    expected = [
        (op, x, _numpy_bits(ufunc, x, starts, shapes))
        for ufunc, op, x in probes
    ]
    for order in _candidate_orders():
        if all(
            bits is not None
            and np.array_equal(
                kernel.reduce(op, x, starts, order).view(np.uint64), bits
            )
            for op, x, bits in expected
        ):
            return order
    return None


def _candidate_orders() -> Iterator[Order]:
    """Every order the probe tries: the scalar pass, the unrolled
    reduce, and SIMD reduces with each tie rule of their lane
    butterfly."""
    yield ORDER_SCALAR, 1, 0
    yield ORDER_UNROLLED, UNROLL, 0
    for width in LANE_WIDTHS:
        for mask in range(1 << (width.bit_length() - 1)):
            yield ORDER_LANES, width, mask


def _match_numpy(lib: ctypes.CDLL) -> Optional[LevelKernel]:
    """The kernel with the reduction orders that reproduce NumPy here,
    or None when no candidate does."""
    lengths = np.tile(np.arange(1, 131), 4)
    starts = np.cumsum(lengths) - lengths
    probes = _probes(int(lengths.sum()))
    kernel = LevelKernel(lib, (ORDER_SCALAR, 1, 0), (ORDER_SCALAR, 1, 0))
    single = _match_order(kernel, probes, starts, SINGLE_SHAPES)
    batched = _match_order(kernel, probes, starts, BATCHED_SHAPES)
    if single is None or batched is None:
        return None
    return LevelKernel(lib, single, batched)


def _select() -> Optional[LevelKernel]:
    """Build, load and probe the kernel; None selects the NumPy path."""
    try:
        return _match_numpy(_load())
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None


class _Selection:
    """The process-wide kernel choice, made on first use."""

    def __init__(self) -> None:
        self.made = False
        self.kernel: Optional[LevelKernel] = None
        self.forced_numpy = 0


_SELECTION = _Selection()


def active() -> Optional[LevelKernel]:
    """The kernel every solve uses now: the native one, or None for the
    NumPy reference program."""
    if not _SELECTION.made:
        _SELECTION.kernel = _select()
        _SELECTION.made = True
    if _SELECTION.forced_numpy:
        return None
    return _SELECTION.kernel


def kernel_name() -> str:
    """``"native"`` or ``"numpy"``: the kernel solves use now."""
    return "numpy" if active() is None else "native"


@contextlib.contextmanager
def numpy_reference() -> Iterator[None]:
    """Solve through the NumPy reference program inside the block."""
    _SELECTION.forced_numpy += 1
    try:
        yield
    finally:
        _SELECTION.forced_numpy -= 1
