"""Natural join evaluation over annotated relations.

All of the operations here are exact and vectorised: the join result of the
paper is a frequency function ``Join_I : D -> Z>=0`` over the joint domain
``D = dom(x)``, which maps directly onto a dense numpy array with one axis per
query attribute.  Aggregates such as the join size or grouped join sizes are
computed with ``numpy.einsum`` without materialising the joint array.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Sequence

import numpy as np

from repro.relational.hypergraph import JoinQuery
from repro.relational.instance import Instance

#: einsum index alphabet; data complexity assumption: constant-size queries.
_EINSUM_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _letters_for(query: JoinQuery) -> dict[str, str]:
    names = query.attribute_names
    if len(names) > len(_EINSUM_LETTERS):
        raise ValueError(
            f"queries with more than {len(_EINSUM_LETTERS)} attributes are not supported"
        )
    return {name: _EINSUM_LETTERS[axis] for axis, name in enumerate(names)}


def expand_to_joint(query: JoinQuery, array: np.ndarray, attribute_names: Sequence[str]) -> np.ndarray:
    """Reshape an array over a subset of attributes so it broadcasts over ``D``.

    The returned view has one axis per query attribute; axes not in
    ``attribute_names`` have extent 1.
    """
    if array.ndim != len(attribute_names):
        raise ValueError(
            f"array has {array.ndim} axes but {len(attribute_names)} attribute names given"
        )
    source_axes = [query.axis_of(name) for name in attribute_names]
    order = np.argsort(source_axes)
    transposed = np.transpose(array, order) if array.ndim > 1 else array
    shape = [1] * len(query.attribute_names)
    for position in order:
        shape[source_axes[position]] = array.shape[position]
    return transposed.reshape(shape)


def join_result(instance: Instance, dtype: np.dtype | type = np.int64) -> np.ndarray:
    """Materialise ``Join_I`` as a dense array over the joint domain.

    Memory is ``prod_x |dom(x)|`` entries; intended for the moderate domain
    sizes used by the synthetic-data algorithms and experiments.
    """
    query = instance.query
    result = np.ones(query.shape, dtype=dtype)
    for relation in instance.relations:
        expanded = expand_to_joint(query, relation.frequencies, relation.attribute_names)
        result = result * expanded.astype(dtype)
    return result


def join_size(instance: Instance) -> int:
    """``count(I)``: the join size, computed without materialising the join; exact."""
    return int(grouped_join_size(instance, range(instance.num_relations), ()))


def grouped_join_size(
    instance: Instance,
    relation_subset: Iterable[int],
    group_by: Sequence[str],
) -> np.ndarray | int:
    """Join sizes of the relations in ``relation_subset`` grouped by attributes.

    Returns an array over the ``group_by`` attributes (in the given order)
    whose entries are the join sizes of the sub-join restricted to each value
    combination; with an empty ``group_by`` the scalar total join size of the
    sub-join is returned.  This is the workhorse behind boundary queries
    ``T_E`` and join-value degrees.

    With non-negative frequencies the product of the relations' totals
    bounds every partial product and sum the contraction forms, so below
    ``2**63`` the int64 einsum cannot wrap.  At or above it the sizes are
    counted exactly over Python ints: the scalar is returned as it is, and
    an array as int64 unless an entry reaches ``2**63``, which raises
    :class:`OverflowError`.
    """
    query = instance.query
    subset = sorted(set(relation_subset))
    if not subset:
        return 1 if not group_by else np.ones(
            tuple(query.attribute(name).domain.size for name in group_by), dtype=np.int64
        )
    relations = [instance.relations[index] for index in subset]
    letters = _letters_for(query)
    input_terms = [
        "".join(letters[name] for name in relation.attribute_names) for relation in relations
    ]
    output_term = "".join(letters[name] for name in group_by)
    if prod(relation.total() for relation in relations) < 2**63:
        subscript = ",".join(input_terms) + "->" + output_term
        operands = [relation.frequencies.astype(np.int64) for relation in relations]
        result = np.einsum(subscript, *operands)
        return result if group_by else int(result)
    # Python ints are exact in any contraction order, so numpy may take its
    # pairwise path rather than the full nested loop.  A leading unit axis
    # keeps every intermediate an array: numpy multiplies two fully summed
    # object operands as int64 scalars, which wraps.
    subscript = ",".join("..." + term for term in input_terms) + "->..." + output_term
    operands = [relation.frequencies.astype(object)[np.newaxis] for relation in relations]
    result = np.einsum(subscript, *operands, optimize=True)[0]
    if not group_by:
        return int(result)
    if result.size and result.max() >= 2**63:
        names = ", ".join(relation.name for relation in relations)
        raise OverflowError(f"join sizes of {names} grouped by {list(group_by)} pass 2**63")
    return result.astype(np.int64)
