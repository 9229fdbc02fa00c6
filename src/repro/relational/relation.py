"""Frequency-annotated relations.

A relation is the function ``R_i : D_i -> Z>=0`` of the paper, stored densely
as a non-negative integer numpy array with one axis per attribute of its
schema.  The class is immutable by convention: every "mutation" returns a new
:class:`Relation`, which keeps neighbouring-instance generation and the
partitioning algorithms side-effect free.  Degrees are grouped join sizes,
counted by :func:`~repro.sensitivity.degrees.degree_vector`.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

from repro.relational.schema import Attribute, RelationSchema

TupleLike = Sequence[Hashable]


class Relation:
    """A frequency-annotated relation over an explicit finite domain.

    Parameters
    ----------
    schema:
        The relation schema; its attribute order fixes the axis order.
    frequencies:
        Optional array of shape ``schema.shape`` holding non-negative integer
        multiplicities.  Defaults to the empty relation (all zeros).
    """

    __slots__ = ("_schema", "_freq")

    def __init__(self, schema: RelationSchema, frequencies: np.ndarray | None = None):
        self._schema = schema
        if frequencies is None:
            self._freq = np.zeros(schema.shape, dtype=np.int64)
        else:
            freq = np.asarray(frequencies)
            if freq.shape != schema.shape:
                raise ValueError(
                    f"frequency array shape {freq.shape} does not match schema "
                    f"shape {schema.shape} for relation {schema.name!r}"
                )
            if np.any(freq < 0):
                raise ValueError("relation frequencies must be non-negative")
            # Checked before the int64 cast, which would wrap an infinite or
            # too large value to -2**63 without raising.
            if freq.dtype.kind == "f" and not np.all(np.isfinite(freq)):
                raise ValueError("relation frequencies must be finite")
            if freq.dtype.kind in "uf" and freq.size and freq.max().item() >= 2**63:
                raise ValueError("relation frequencies must be below 2**63")
            if not np.issubdtype(freq.dtype, np.integer):
                rounded = np.rint(freq)
                if not np.allclose(freq, rounded):
                    raise ValueError("relation frequencies must be integral")
                freq = rounded
            self._freq = freq.astype(np.int64, copy=True)
        self._freq.setflags(write=False)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, schema: RelationSchema) -> "Relation":
        return cls(schema)

    @classmethod
    def from_tuples(
        cls,
        schema: RelationSchema,
        tuples: Iterable[TupleLike],
    ) -> "Relation":
        """Build a relation from an iterable of value tuples (multiset semantics)."""
        freq = np.zeros(schema.shape, dtype=np.int64)
        for record in tuples:
            freq[cls._index_of(schema, record)] += 1
        return cls(schema, freq)

    @classmethod
    def full(cls, schema: RelationSchema, multiplicity: int = 1) -> "Relation":
        """The relation holding every domain tuple with the given multiplicity."""
        if multiplicity < 0:
            raise ValueError("multiplicity must be non-negative")
        return cls(schema, np.full(schema.shape, multiplicity, dtype=np.int64))

    @staticmethod
    def _index_of(schema: RelationSchema, record: TupleLike) -> tuple[int, ...]:
        if len(record) != len(schema.attributes):
            raise ValueError(
                f"tuple {record!r} has arity {len(record)}, expected "
                f"{len(schema.attributes)} for relation {schema.name!r}"
            )
        return tuple(
            attribute.domain.index_of(value)
            for attribute, value in zip(schema.attributes, record)
        )

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def schema(self) -> RelationSchema:
        return self._schema

    @property
    def name(self) -> str:
        return self._schema.name

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        return self._schema.attributes

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return self._schema.attribute_names

    @property
    def frequencies(self) -> np.ndarray:
        """The (read-only) dense frequency array."""
        return self._freq

    @property
    def shape(self) -> tuple[int, ...]:
        return self._freq.shape

    def total(self) -> int:
        """Total multiplicity: the number of (weighted) records in the relation.

        Exact: numpy's int64 sum where the largest frequency times the cell
        count stays below ``2**63``, a sum of Python ints otherwise.
        """
        freq = self._freq
        if freq.size and int(freq.max()) * freq.size >= 2**63:
            return int(freq.sum(dtype=object))
        return int(freq.sum())

    def support_size(self) -> int:
        """Number of distinct tuples with positive multiplicity."""
        return int(np.count_nonzero(self._freq))

    def multiplicity(self, record: TupleLike) -> int:
        return int(self._freq[self._index_of(self._schema, record)])

    def tuples(self) -> Iterator[tuple[tuple, int]]:
        """Yield ``(value_tuple, multiplicity)`` for every tuple in the support."""
        for flat_index in np.flatnonzero(self._freq):
            index = np.unravel_index(flat_index, self._freq.shape)
            values = tuple(
                attribute.domain.value_at(i)
                for attribute, i in zip(self._schema.attributes, index)
            )
            yield values, int(self._freq[index])

    # ------------------------------------------------------------------ #
    # algebra
    # ------------------------------------------------------------------ #
    def with_delta(self, record: TupleLike, delta: int) -> "Relation":
        """Return a copy with the multiplicity of ``record`` changed by ``delta``."""
        index = self._index_of(self._schema, record)
        new_value = int(self._freq[index]) + delta
        if new_value < 0:
            raise ValueError(
                f"cannot lower multiplicity of {record!r} below zero "
                f"(current {int(self._freq[index])}, delta {delta})"
            )
        freq = self._freq.copy()
        freq[index] = new_value
        return Relation(self._schema, freq)

    def with_frequencies(self, frequencies: np.ndarray) -> "Relation":
        return Relation(self._schema, frequencies)

    def restrict_joint(self, attribute_names: Sequence[str], allowed_mask: np.ndarray) -> "Relation":
        """Keep only records whose joint value on ``attribute_names`` is allowed.

        ``allowed_mask`` is a boolean array over the listed attributes' domains
        (in the listed order).  Used by the hierarchical decomposition where
        buckets are defined on tuples over several ancestor attributes.
        """
        if not attribute_names:
            if allowed_mask.shape != ():
                raise ValueError("scalar mask expected for empty attribute list")
            return self if bool(allowed_mask) else Relation(self._schema)
        axes = [self._schema.axis_of(name) for name in attribute_names]
        expected_shape = tuple(self._schema.attributes[axis].domain.size for axis in axes)
        mask = np.asarray(allowed_mask, dtype=bool)
        if mask.shape != expected_shape:
            raise ValueError(
                f"mask shape {mask.shape} does not match attribute domain shape {expected_shape}"
            )
        # Move mask axes into relation axis order before reshaping.
        order = np.argsort(axes)
        mask_in_rel_order = np.transpose(mask, order)
        sorted_axes = sorted(axes)
        reshaped = [1] * self._freq.ndim
        for mask_axis, rel_axis in enumerate(sorted_axes):
            reshaped[rel_axis] = mask_in_rel_order.shape[mask_axis]
        return Relation(self._schema, self._freq * mask_in_rel_order.reshape(reshaped))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._schema == other._schema and np.array_equal(self._freq, other._freq)

    def __hash__(self) -> int:  # pragma: no cover - relations are not hashed in hot paths
        return hash((self._schema.name, self._freq.tobytes()))

    def __repr__(self) -> str:
        return (
            f"Relation({self._schema.name!r}, attributes={self.attribute_names}, "
            f"total={self.total()}, support={self.support_size()})"
        )
