"""Result container for vectorized sweeps: labelled axes plus spec arrays.

:class:`SweepResult` holds one dense float array per spec, all sharing the
shape implied by the axes tuple.  Accessors never expose raw integer
indexing; callers select by axis *name* and *value* (nearest point on
numeric axes, exact label on categorical ones), which keeps the experiment
drivers free of shape bookkeeping:

>>> sweep = runner.run(rf_frequencies=grid)                  # doctest: +SKIP
>>> f, gain = sweep.curve("conversion_gain_db", "rf_frequency_hz",
...                       mode=MixerMode.ACTIVE)             # doctest: +SKIP
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro.sweep.grid import DESIGN_AXIS, SweepAxis


class SweepResult:
    """Labelled N-dimensional sweep output.

    Parameters
    ----------
    axes:
        The labelled axes, outermost first; their lengths define the shape
        every spec array must have.
    data:
        Mapping of spec name to a float array of exactly that shape.
    """

    def __init__(self, axes: Sequence[SweepAxis],
                 data: dict[str, np.ndarray]) -> None:
        self.axes = tuple(axes)
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names: {names}")
        if not data:
            raise ValueError("a sweep result needs at least one spec array")
        shape = tuple(len(axis) for axis in self.axes)
        self.data: dict[str, np.ndarray] = {}
        for spec, array in data.items():
            arr = np.asarray(array, dtype=float)
            if arr.shape != shape:
                raise ValueError(
                    f"spec {spec!r} has shape {arr.shape}, expected {shape}")
            self.data[spec] = arr

    # -- introspection -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        """Grid shape, one entry per axis."""
        return tuple(len(axis) for axis in self.axes)

    @property
    def spec_names(self) -> tuple[str, ...]:
        """Names of the spec arrays held by this result."""
        return tuple(self.data)

    def axis(self, name: str) -> SweepAxis:
        """Look up an axis by name."""
        for axis in self.axes:
            if axis.name == name:
                return axis
        raise KeyError(f"no axis named {name!r}; axes: "
                       f"{[a.name for a in self.axes]}")

    def _axis_position(self, name: str) -> int:
        for position, axis in enumerate(self.axes):
            if axis.name == name:
                return position
        raise KeyError(f"no axis named {name!r}; axes: "
                       f"{[a.name for a in self.axes]}")

    # -- selection -----------------------------------------------------------

    def _spec_array(self, spec: str) -> np.ndarray:
        try:
            return self.data[spec]
        except KeyError:
            raise KeyError(f"no spec named {spec!r}; specs: "
                           f"{list(self.data)}") from None

    def values(self, spec: str, **selectors: Any) -> np.ndarray:
        """Spec array with the named axes fixed at the selected values.

        Each keyword is an axis name; its value selects one grid point
        (nearest on numeric axes, exact label on categorical axes).  Selected
        axes are dropped from the result, unselected axes remain in order.
        """
        array = self._spec_array(spec)
        index: list = [slice(None)] * array.ndim
        for name, value in selectors.items():
            index[self._axis_position(name)] = self.axis(name).index_of(value)
        return array[tuple(index)]

    def value(self, spec: str, **selectors: Any) -> float:
        """Single scalar value; every axis of length > 1 must be selected.

        Axes of length one are implicitly squeezed, so nominal-point sweeps
        read naturally: ``result.value("iip3_dbm", mode="passive")``.
        """
        array = self.values(spec, **selectors)
        if array.size != 1:
            unselected = [axis.name for axis in self.axes
                          if axis.name not in selectors and len(axis) > 1]
            raise ValueError(
                f"value() needs every multi-point axis selected; "
                f"missing: {unselected}")
        return float(array.reshape(()))

    def curve(self, spec: str, along: str, **selectors: Any
              ) -> tuple[np.ndarray, np.ndarray]:
        """(axis values, spec values) along one axis, other axes fixed.

        Axes of length one need no selector; any other unselected axis is an
        error so a curve is never silently averaged or truncated.
        """
        along_axis = self.axis(along)
        if along in selectors:
            raise ValueError(f"cannot both sweep along and select {along!r}")
        fixed = dict(selectors)
        for axis in self.axes:
            if axis.name == along or axis.name in fixed:
                continue
            if len(axis) != 1:
                raise ValueError(
                    f"axis {axis.name!r} has {len(axis)} points; select one "
                    f"to extract a curve along {along!r}")
            fixed[axis.name] = axis.values[0]
        series = self.values(spec, **fixed)
        return along_axis.as_array() if along_axis.is_numeric \
            else np.asarray(along_axis.values), series

    # -- combination ---------------------------------------------------------

    @classmethod
    def concat(cls, results: Iterable["SweepResult"],
               axis: str = DESIGN_AXIS) -> "SweepResult":
        """Stitch shard results back into one sweep along a named axis.

        This is the join step of :class:`~repro.sweep.parallel.\
ShardedRunner`: each shard holds a contiguous slice of the ``axis``
        values (by default the design axis) over otherwise identical grids.
        Every input must carry the same spec names and bit-identical
        non-concatenated axes; categorical axis labels must stay unique after
        joining.  Order is preserved — shards concatenate in the order given.
        """
        shards = list(results)
        if not shards:
            raise ValueError("concat() needs at least one result")
        first = shards[0]
        position = first._axis_position(axis)
        for shard in shards[1:]:
            if shard.spec_names != first.spec_names:
                raise ValueError(
                    f"cannot concat results with different specs: "
                    f"{shard.spec_names} vs {first.spec_names}")
            if [a.name for a in shard.axes] != [a.name for a in first.axes]:
                raise ValueError(
                    f"cannot concat results with different axes: "
                    f"{[a.name for a in shard.axes]} vs "
                    f"{[a.name for a in first.axes]}")
            for ours, theirs in zip(first.axes, shard.axes):
                if ours.name != axis and ours.values != theirs.values:
                    raise ValueError(
                        f"axis {ours.name!r} differs between shards; only "
                        f"{axis!r} may vary")
        joined_values = [value for shard in shards
                         for value in shard.axis(axis).values]
        if first.axis(axis).is_numeric:
            joined_axis = SweepAxis.numeric(axis, joined_values)
        else:
            # categorical() re-validates that shard labels stay unique.
            joined_axis = SweepAxis.categorical(axis, joined_values)
        axes = tuple(joined_axis if a.name == axis else a for a in first.axes)
        data = {
            spec: np.concatenate([shard.data[spec] for shard in shards],
                                 axis=position)
            for spec in first.spec_names
        }
        return cls(axes, data)

    # -- export --------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready dictionary: axes plus nested-list spec arrays."""
        return {
            "axes": [axis.to_dict() for axis in self.axes],
            "specs": {spec: array.tolist() for spec, array in self.data.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepResult":
        """Rebuild a result from :meth:`to_dict` output.

        ``to_dict() -> json -> from_dict()`` round-trips exactly: axis
        labels, axis kinds, spec names and every float (``tolist`` and JSON
        both preserve doubles bit-for-bit), so serialized sweeps can be
        reloaded by caches, services or notebooks without loss.
        """
        axes = tuple(SweepAxis.from_dict(entry) for entry in payload["axes"])
        data = {spec: np.asarray(values, dtype=float)
                for spec, values in payload["specs"].items()}
        return cls(axes, data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        axes = ", ".join(f"{a.name}[{len(a)}]" for a in self.axes)
        return f"SweepResult({axes}; specs={list(self.data)})"
