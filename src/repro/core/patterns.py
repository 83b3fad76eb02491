"""Object-level access-pattern classification (the Spindle substitute).

The paper compiles applications with Spindle, an LLVM static-analysis tool
that extracts the structural information of memory-access instructions and
classifies each data object's accesses as stream / strided / stencil /
random (Section 4).  Without LLVM, applications here declare their kernels
in a small loop-nest IR -- loops over induction variables containing array
references with symbolic index expressions -- and this module performs the
same structural classification over that IR:

* an affine index in the innermost induction variable with |stride| == 1
  (or a reduction/delta/transpose form) -> STREAM;
* an affine index with constant |stride| > 1 -> STRIDED;
* several references to the *same* array at unit stride with distinct
  constant offsets (``A[i-1]``, ``A[i+1]``, ...) -> STENCIL;
* an index that goes through another array (``B[C[i]]``, ``A[B[i]]``) ->
  RANDOM (gather/scatter/pointer chase);
* anything unrecognised -> RANDOM (Section 4, "Handling unknown patterns").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from repro.common import AccessPattern

__all__ = [
    "IndexExpr",
    "Affine",
    "Indirect",
    "ArrayRef",
    "Loop",
    "classify_kernel",
    "classify_object",
    "KernelPatterns",
]


@dataclass(frozen=True)
class Affine:
    """Index expression ``stride * var + offset``."""

    var: str
    stride: int = 1
    offset: int = 0

    def __post_init__(self) -> None:
        if not self.var:
            raise ValueError("induction variable name required")


@dataclass(frozen=True)
class Indirect:
    """Index expression ``index_array[inner]`` -- indirect addressing."""

    index_array: str
    inner: "IndexExpr"


IndexExpr = Union[Affine, Indirect]


@dataclass(frozen=True)
class ArrayRef:
    """One array reference inside a loop body."""

    array: str
    index: IndexExpr
    is_write: bool = False


@dataclass(frozen=True)
class Loop:
    """A (possibly nested) counted loop over induction variable ``var``."""

    var: str
    body: tuple[Union["Loop", ArrayRef], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))

    def refs(self) -> Iterable[tuple[ArrayRef, str]]:
        """Yield (reference, innermost loop variable governing it)."""
        for item in self.body:
            if isinstance(item, Loop):
                yield from item.refs()
            else:
                yield item, self.var


@dataclass(frozen=True)
class KernelPatterns:
    """Classification result for one kernel."""

    #: per-array dominant pattern
    per_object: dict[str, AccessPattern]
    #: per-array stride for STRIDED objects (1 otherwise)
    strides: dict[str, int]

    def patterns_present(self) -> tuple[AccessPattern, ...]:
        """Distinct patterns, most common first (Table 1's rows)."""
        counts: dict[AccessPattern, int] = {}
        for p in self.per_object.values():
            counts[p] = counts.get(p, 0) + 1
        return tuple(sorted(counts, key=counts.__getitem__, reverse=True))


def classify_kernel(kernel: Loop | Iterable[Loop]) -> KernelPatterns:
    """Classify every array referenced by a kernel (one or more loop nests)."""
    loops = [kernel] if isinstance(kernel, Loop) else list(kernel)
    refs_by_array: dict[str, list[tuple[ArrayRef, str]]] = {}
    index_arrays: set[str] = set()
    for loop in loops:
        for ref, var in loop.refs():
            refs_by_array.setdefault(ref.array, []).append((ref, var))
            idx = ref.index
            while isinstance(idx, Indirect):
                index_arrays.add(idx.index_array)
                idx = idx.inner

    per_object: dict[str, AccessPattern] = {}
    strides: dict[str, int] = {}
    for array, refs in refs_by_array.items():
        per_object[array], strides[array] = _classify_refs(refs)
    # arrays used purely as index sources are themselves streamed through
    for array in index_arrays:
        if array not in per_object:
            per_object[array] = AccessPattern.STREAM
            strides[array] = 1
    return KernelPatterns(per_object=per_object, strides=strides)


def _classify_refs(refs: list[tuple[ArrayRef, str]]) -> tuple[AccessPattern, int]:
    """Classify one array given all its references."""
    # any indirect reference makes the object random (gather/scatter)
    if any(isinstance(ref.index, Indirect) for ref, _ in refs):
        return AccessPattern.RANDOM, 1

    affine = [(ref, var) for ref, var in refs if isinstance(ref.index, Affine)]
    if not affine:  # pragma: no cover - IndexExpr union is exhaustive
        return AccessPattern.RANDOM, 1

    # stencil: >= 2 unit-stride references on the same variable with
    # distinct offsets (A[i-1] + A[i+1] -> A[i])
    by_var: dict[str, set[int]] = {}
    for ref, _ in affine:
        idx = ref.index
        assert isinstance(idx, Affine)
        if abs(idx.stride) == 1:
            by_var.setdefault(idx.var, set()).add(idx.offset)
    if any(len(offsets) >= 2 for offsets in by_var.values()):
        return AccessPattern.STENCIL, 1

    strides_seen = {abs(ref.index.stride) for ref, _ in affine}  # type: ignore[union-attr]
    if strides_seen == {1}:
        return AccessPattern.STREAM, 1
    if 0 in strides_seen:
        # loop-invariant index: scalar-like reuse, counts as stream (delta)
        strides_seen.discard(0)
        if not strides_seen:
            return AccessPattern.STREAM, 1
    stride = max(strides_seen)
    return AccessPattern.STRIDED, stride


def classify_object(kernel: Loop | Iterable[Loop], array: str) -> AccessPattern:
    """Pattern of a single array (treats unknown arrays as RANDOM)."""
    result = classify_kernel(kernel)
    return result.per_object.get(array, AccessPattern.RANDOM)
