"""Columnar household fleets: struct-of-arrays kernels over a population.

The planning layer of the Utility Agent (Section 5.1's observe → predict →
negotiate loop) repeatedly needs the same three quantities for *every*
household of a population: its daily demand profile under tomorrow's weather,
the energy it has at stake in the predicted peak interval and the largest
cut-down its appliances could physically deliver (what its Resource Consumer
Agents would report).  The object model computes each of these one household
at a time, rebuilding ~10 appliance profiles per call — fine for the
prototype's handful of customers, ruinous for 10k-household day-ahead
planning.

:class:`HouseholdFleet` is the columnar view: household attributes (appliance
ownership scales, sizes, comfort weights, flexibility scales) and appliance
parameters (slot weights, daily energies, rated-power caps, flexibilities)
are packed into numpy arrays once, and the per-household quantities come out
of batched kernels — ``demand_profiles``, ``energy_in``, ``saveable_energy``
and ``max_cutdown_fractions``.

**One appliance pass per planned day.**  All of these rest on one private
pass that streams the appliances over row blocks of 4096 households: per
block, each appliance's ``(S, block)`` power is computed into a reused
buffer and folded into three accumulators — the ``(N, S)`` demand matrix,
the interval energy and the saveable energy.  Temporaries are O(block·S),
never O(A·N·S).  The demand matrix is cached per heating factor and the two
interval vectors per ``(heating factor, interval slots)``, so a day's
``energy_in`` → ``saveable_energy`` → ``demand_profiles`` sequence streams
the appliances once.  Cached arrays are read-only; ``energy_in`` and
``saveable_energy`` hand out copies, so a caller mutating its result never
reaches the cache that other callers (and other serving threads) share.

**Exactness contract.**  Every kernel mirrors the scalar code in
:class:`~repro.grid.household.Household` and
:class:`~repro.grid.appliances.Appliance` operation-for-operation (same float
multiplication order, same sequential accumulation over appliances and time
slots, powers precomputed with Python ``**``), so the fleet path is
*bit-identical* to the per-household object path — the same guarantee
:class:`~repro.agents.vectorized.VectorizedPopulation` gives the negotiation
kernels.  ``tests/test_grid_fleet.py`` enforces it per household.

A plain :class:`HouseholdFleet` requires a *homogeneous* population: all
households share one appliance library, one profile resolution, and list
their owned appliances in a common column order (which
:meth:`Household.generate` guarantees).  :class:`BucketedFleet` lifts that
restriction: it groups households by appliance signature (library identity by
value, ownership-dict column order), builds one :class:`HouseholdFleet` per
bucket with a per-bucket column permutation, and scatters kernel results back
into population order — still bit-identical per household.  Callers should
use :func:`pack_fleet`, which picks the single-fleet layout when it applies
and the bucketed one otherwise; only genuinely unpackable populations (mixed
profile resolutions) raise :class:`FleetIncompatibleError`, and callers fall
back to the scalar per-household path.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.grid.appliances import ApplianceCategory
from repro.grid.household import Household
from repro.grid.load_profile import LoadProfile, matrix_average_in
from repro.grid.weather import WeatherSample
from repro.runtime.clock import TimeInterval

#: Heating-driven appliance categories (their energy scales with the weather's
#: heating factor, mirroring :meth:`Appliance.daily_profile`).
_HEATING_CATEGORIES = (ApplianceCategory.SPACE_HEATING, ApplianceCategory.WATER_HEATING)

#: Per-fleet FIFO bound on each kernel cache: the weather-keyed ``(N, S)``
#: demand matrices and the ``(heating factor, interval slots)``-keyed energy
#: and saveable vectors.  A campaign touches one heating factor and one peak
#: interval per day; a handful of entries covers the planner's plan/account/
#: observe calls for that day without unbounded growth.  The per-appliance
#: powers are never materialised beyond one ``(S, block)`` buffer, so a
#: 100k-household fleet's footprint stays O(N·S).
_WEATHER_CACHE_SIZE = 4

#: Row-block height of the appliance pass.  Its ``(S, block)`` power and
#: accumulator buffers (768 KiB each at 24 slots) stay cache-resident while
#: each appliance's contribution is folded into the block.
_BLOCK_ROWS = 4096


class FleetIncompatibleError(ValueError):
    """The households cannot be packed into one columnar fleet."""


def _interval_slot_indices(interval: TimeInterval, slots_per_day: int) -> list[int]:
    if interval.slots_per_day != slots_per_day:
        raise ValueError(
            f"interval resolution {interval.slots_per_day} does not match "
            f"fleet resolution {slots_per_day}"
        )
    return [slot.index for slot in interval.slots()]


def _interval_energy(
    block: np.ndarray, indices: Sequence[int], slot_hours: float, out: np.ndarray
) -> np.ndarray:
    """Per-household interval energy of a slot-major ``(S, rows)`` block into
    ``out``, with the summation order of :meth:`LoadProfile.energy_in`
    (slot by slot, then x slot hours)."""
    out.fill(0.0)
    for index in indices:
        np.add(out, block[index], out=out)
    return np.multiply(out, slot_hours, out=out)


def _fifo_put(cache: dict, key, value) -> None:
    """Insert into a FIFO-bounded kernel cache.

    Fleets are shared across serving threads through the population cache;
    ``list(cache)`` snapshots the keys in one step and ``pop`` tolerates a
    racing eviction, so concurrent fills never raise.
    """
    keys = list(cache)
    if len(keys) >= _WEATHER_CACHE_SIZE:
        cache.pop(keys[0], None)
    cache[key] = value


class HouseholdFleet:
    """All planning-relevant attributes of a household population, as arrays.

    Attributes
    ----------
    households:
        The packed :class:`~repro.grid.household.Household` objects, in fleet
        order; every array below is aligned with this order.
    household_ids:
        Household identifiers, in fleet order.
    sizes / comfort_weights / flexibility_scales:
        Per-household attribute vectors (``(N,)``).
    ownership:
        ``(N, A)`` matrix of appliance usage scales (0 = not owned), with
        appliance columns in library order.
    """

    def __init__(
        self,
        households: Sequence[Household],
        appliance_order: Optional[Sequence[str]] = None,
    ) -> None:
        if not households:
            # Plain ValueError, deliberately *not* FleetIncompatibleError:
            # callers treat the latter as a fall-back-to-scalar signal, and an
            # empty population is misuse that must fail loudly at the boundary.
            raise ValueError("a fleet needs at least one household")
        self.households = list(households)
        first = self.households[0]
        self.slots_per_day = first.slots_per_day
        self.library = first.library
        library_names = list(self.library.names)
        library_appliances = self.library.all()
        if appliance_order is None:
            names = library_names
        else:
            names = list(appliance_order)
            unknown = [name for name in names if name not in self.library]
            if unknown:
                raise FleetIncompatibleError(
                    f"appliance order names unknown appliances: {unknown!r}"
                )
            if len(set(names)) != len(names):
                raise FleetIncompatibleError("appliance order repeats a column")
        appliances = [self.library.get(name) for name in names]
        index_of = {name: column for column, name in enumerate(names)}
        ownership_rows = []
        for household in self.households:
            if household.slots_per_day != self.slots_per_day:
                raise FleetIncompatibleError(
                    "all fleet households must share one profile resolution"
                )
            if household.library is not self.library and (
                household.library.names != library_names
                or [household.library.get(n) for n in library_names]
                != library_appliances
            ):
                raise FleetIncompatibleError(
                    "all fleet households must share one appliance library"
                )
            # The scalar path aggregates appliances in ownership-dict order;
            # the fleet aggregates in column order.  Bit-identity therefore
            # requires the owned appliances to appear in column order (the
            # library's by default, or the caller's ``appliance_order``
            # permutation — how BucketedFleet packs households whose
            # ownership dicts are not library-ordered).
            try:
                owned_columns = [
                    index_of[name]
                    for name, scale in household.profile.ownership.items()
                    if scale > 0
                ]
            except KeyError as exc:
                raise FleetIncompatibleError(
                    f"household {household.household_id!r} owns an appliance "
                    f"outside the fleet's column order: {exc.args[0]!r}"
                ) from None
            if owned_columns != sorted(owned_columns):
                raise FleetIncompatibleError(
                    f"household {household.household_id!r} lists owned "
                    f"appliances out of column order"
                )
            ownership_rows.append(
                [household.profile.ownership.get(name, 0.0) for name in names]
            )
        self.household_ids = [h.household_id for h in self.households]
        self.sizes = np.array([float(h.size) for h in self.households])
        self.comfort_weights = np.array(
            [h.profile.comfort_weight for h in self.households]
        )
        self.flexibility_scales = np.array(
            [h.profile.flexibility_scale for h in self.households]
        )
        self.ownership = np.array(ownership_rows, dtype=float).reshape(
            len(self.households), len(appliances)
        )
        # Per-appliance static columns (one column per ``names`` entry).
        self._appliances = appliances
        self._daily_energies = np.array([a.daily_energy_kwh for a in appliances])
        self._rated_powers = np.array([a.rated_power_kw for a in appliances])
        self._flexibilities = np.array([a.flexibility for a in appliances])
        self._per_person = [a.per_person for a in appliances]
        self._heating = [a.category in _HEATING_CATEGORIES for a in appliances]
        if appliances:
            self._slot_weights = np.stack(
                [a.slot_weights(self.slots_per_day) for a in appliances]
            )
            # Rated-power caps are weather-independent:
            # rated * (size | 1) * max(scale, 1).
            self._caps = np.stack(
                [
                    (
                        self._rated_powers[column] * self.sizes
                        if self._per_person[column]
                        else np.full(len(self.households), self._rated_powers[column])
                    )
                    * np.maximum(self.ownership[:, column], 1.0)
                    for column in range(len(appliances))
                ]
            )  # (A, N)
        else:  # a bucket of appliance-less households still packs cleanly
            self._slot_weights = np.zeros((0, self.slots_per_day))
            self._caps = np.zeros((0, len(self.households)))
        #: Weather-keyed demand-matrix cache (heating factor -> (N, S) array),
        #: FIFO-bounded.
        self._demand_cache: dict[float, np.ndarray] = {}
        #: (heating factor, interval slot indices) -> read-only
        #: (energy_in, saveable_energy) vectors, FIFO-bounded.
        self._interval_cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    # -- basic views -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.households)

    @property
    def num_appliances(self) -> int:
        return len(self._appliances)

    @staticmethod
    def heating_factor(weather: Optional[WeatherSample]) -> float:
        return weather.heating_factor if weather is not None else 1.0

    # -- kernels -----------------------------------------------------------------

    def _appliance_pass(
        self, heating_factor: float, indices: Optional[tuple[int, ...]] = None
    ) -> tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        """One blocked pass over the appliances, mirroring the scalar path.

        Streams every appliance's power over row blocks of
        :data:`_BLOCK_ROWS` households and accumulates, per block, the
        ``(N, S)`` demand matrix and — when ``indices`` names an interval's
        slots — the per-household interval energy and saveable energy.
        Temporaries are ``(S, block)`` or ``(block,)`` buffers written in
        place; slot-major blocks keep every inner loop contiguous over
        households, and each finished block is transposed into the demand
        matrix once.  The float operations per element are those of
        :meth:`Appliance.daily_profile`, :meth:`LoadProfile.energy_in` and
        :meth:`Household.saveable_energy`, in the same order.
        """
        households = len(self.households)
        slot_hours = 24.0 / self.slots_per_day
        total = np.empty((households, self.slots_per_day))
        energy = saveable = None
        if indices is not None:
            energy = np.empty(households)
            saveable = np.zeros(households)
        height = min(_BLOCK_ROWS, households)
        power_buffer = np.empty((self.slots_per_day, height))
        block_buffer = np.empty((self.slots_per_day, height))
        scaled_buffer = np.empty(height)
        part_buffer = np.empty(height)
        for start in range(0, households, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, households)
            power = power_buffer[:, : stop - start]
            block = block_buffer[:, : stop - start]
            scaled = scaled_buffer[: stop - start]
            part = part_buffer[: stop - start]
            block.fill(0.0)
            for column in range(self.num_appliances):
                # Same multiplication order as Appliance.daily_profile: base
                # energy x ownership scale, then x household size (per-person
                # appliances), then x heating factor (heating categories).
                np.multiply(
                    self._daily_energies[column], self.ownership[start:stop, column],
                    out=scaled,
                )
                if self._per_person[column]:
                    np.multiply(scaled, self.sizes[start:stop], out=scaled)
                if self._heating[column]:
                    np.multiply(scaled, heating_factor, out=scaled)
                np.multiply(self._slot_weights[column][:, None], scaled, out=power)
                np.divide(power, slot_hours, out=power)
                np.minimum(power, self._caps[column, start:stop], out=power)
                # Sequential accumulation in column order matches the scalar
                # LoadProfile.aggregate over owned appliances (adding an
                # unowned appliance's exact 0.0 contribution preserves every
                # bit).
                np.add(block, power, out=block)
                if indices is not None:
                    # Appliance.saveable_energy x household flexibility scale.
                    _interval_energy(power, indices, slot_hours, out=part)
                    np.multiply(part, self._flexibilities[column], out=part)
                    np.multiply(part, self.flexibility_scales[start:stop], out=part)
                    np.add(saveable[start:stop], part, out=saveable[start:stop])
            total[start:stop] = block.T
            if indices is not None:
                _interval_energy(block, indices, slot_hours, out=energy[start:stop])
        return total, energy, saveable

    def demand_profiles(self, weather: Optional[WeatherSample] = None) -> np.ndarray:
        """``(N, S)`` matrix of per-household daily demand (kW per slot).

        Row ``i`` is bit-identical to
        ``households[i].demand_profile(weather).as_array()``.  The matrix is
        cached per heating factor and read-only.
        """
        factor = self.heating_factor(weather)
        cached = self._demand_cache.get(factor)
        if cached is not None:
            return cached
        total, __, __ = self._appliance_pass(factor)
        return self._cache_demand(factor, total)

    def _cache_demand(self, factor: float, total: np.ndarray) -> np.ndarray:
        """Store ``total`` as the read-only demand matrix of ``factor``.

        An entry already cached for ``factor`` wins (it holds the same
        bits), so repeated calls keep returning one object.
        """
        cached = self._demand_cache.get(factor)
        if cached is not None:
            return cached
        total.setflags(write=False)
        _fifo_put(self._demand_cache, factor, total)
        return total

    def _interval_energies(
        self, interval: TimeInterval, weather: Optional[WeatherSample]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cached read-only ``(energy_in, saveable_energy)`` for one interval.

        A miss runs the one appliance pass, which also fills the demand
        cache, so a planned day (energy, saveable, then demand profiles)
        streams the appliances once.
        """
        indices = tuple(_interval_slot_indices(interval, self.slots_per_day))
        factor = self.heating_factor(weather)
        key = (factor, indices)
        cached = self._interval_cache.get(key)
        if cached is not None:
            return cached
        total, energy, saveable = self._appliance_pass(factor, indices)
        self._cache_demand(factor, total)
        energy.setflags(write=False)
        saveable.setflags(write=False)
        _fifo_put(self._interval_cache, key, (energy, saveable))
        return energy, saveable

    def aggregate_demand(self, weather: Optional[WeatherSample] = None) -> LoadProfile:
        """Population aggregate profile; equals summing the per-household profiles."""
        return LoadProfile.from_array(self.demand_profiles(weather).sum(axis=0))

    def energy_in(
        self, interval: TimeInterval, weather: Optional[WeatherSample] = None
    ) -> np.ndarray:
        """Per-household energy (kWh) used during the interval (``(N,)``).

        A fresh array: callers may mutate it without touching the cache.
        """
        return self._interval_energies(interval, weather)[0].copy()

    def average_in(
        self, interval: TimeInterval, weather: Optional[WeatherSample] = None
    ) -> np.ndarray:
        """Per-household average demand (kW) during the interval (``(N,)``)."""
        _interval_slot_indices(interval, self.slots_per_day)  # resolution check
        return matrix_average_in(self.demand_profiles(weather), interval)

    def saveable_energy(
        self, interval: TimeInterval, weather: Optional[WeatherSample] = None
    ) -> np.ndarray:
        """Per-household saveable energy (kWh) in the interval (``(N,)``).

        What the Resource Consumer Agents report upward: each appliance's
        interval energy times its flexibility, scaled by the household's
        flexibility scale, accumulated in column order like the scalar
        :meth:`Household.saveable_energy`.  A fresh array, like
        :meth:`energy_in`.
        """
        return self._interval_energies(interval, weather)[1].copy()

    def max_cutdown_fractions(
        self,
        interval: TimeInterval,
        weather: Optional[WeatherSample] = None,
        demand_energies: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Largest physically implementable cut-down fraction per household.

        ``demand_energies`` lets callers that already hold
        ``energy_in(interval, weather)`` skip recomputing it.
        """
        energy, saveable = self._interval_energies(interval, weather)
        demand = demand_energies if demand_energies is not None else energy
        with np.errstate(divide="ignore", invalid="ignore"):
            fractions = np.minimum(1.0, saveable / demand)
        return np.where(demand > 0, fractions, 0.0)


class BucketedFleet:
    """A heterogeneous population packed as per-signature sub-fleets.

    Households are grouped by appliance signature — their library (compared
    by value, like :class:`HouseholdFleet`) and the column order of their
    ownership dict — and each bucket becomes one :class:`HouseholdFleet`
    whose columns follow that bucket's ownership-dict order.  Because every
    household's *owned* appliances are a subsequence of its ownership-dict
    keys, the per-bucket column permutation always satisfies the fleet's
    order check, and each kernel row keeps the scalar path's accumulation
    order: bucketed results are bit-identical to the per-household loop.

    Kernel results are scattered back into population order, so the class
    exposes the same surface as :class:`HouseholdFleet` (``demand_profiles``,
    ``energy_in``, ``average_in``, ``saveable_energy``,
    ``max_cutdown_fractions``, ``aggregate_demand`` and the per-household
    attribute vectors) and is a drop-in replacement for planning callers.

    Only mixed profile *resolutions* remain unpackable and raise
    :class:`FleetIncompatibleError`.
    """

    def __init__(self, households: Sequence[Household]) -> None:
        if not households:
            raise ValueError("a fleet needs at least one household")
        self.households = list(households)
        self.slots_per_day = self.households[0].slots_per_day
        self._libraries: list = []
        token_by_id: dict[int, int] = {}
        groups: dict[tuple, list[int]] = {}
        for row, household in enumerate(self.households):
            if household.slots_per_day != self.slots_per_day:
                raise FleetIncompatibleError(
                    "all fleet households must share one profile resolution"
                )
            token = token_by_id.get(id(household.library))
            if token is None:
                token = self._library_token(household.library)
                token_by_id[id(household.library)] = token
            key = (token, tuple(household.profile.ownership.keys()))
            groups.setdefault(key, []).append(row)
        #: ``(population-row indices, sub-fleet)`` pairs, one per signature,
        #: in first-appearance order.
        self.buckets: list[tuple[np.ndarray, HouseholdFleet]] = [
            (
                np.array(rows, dtype=np.intp),
                HouseholdFleet(
                    [self.households[row] for row in rows], appliance_order=key[1]
                ),
            )
            for key, rows in groups.items()
        ]
        self.household_ids = [h.household_id for h in self.households]
        self.sizes = np.array([float(h.size) for h in self.households])
        self.comfort_weights = np.array(
            [h.profile.comfort_weight for h in self.households]
        )
        self.flexibility_scales = np.array(
            [h.profile.flexibility_scale for h in self.households]
        )
        self._demand_cache: dict[float, np.ndarray] = {}

    def _library_token(self, library) -> int:
        for token, known in enumerate(self._libraries):
            if library is known or (
                library.names == known.names
                and [library.get(name) for name in known.names] == known.all()
            ):
                return token
        self._libraries.append(library)
        return len(self._libraries) - 1

    # -- basic views -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.households)

    @property
    def num_buckets(self) -> int:
        return len(self.buckets)

    heating_factor = staticmethod(HouseholdFleet.heating_factor)

    # -- kernels -----------------------------------------------------------------

    def _scatter(self, kernel_name: str, *args, **kwargs) -> np.ndarray:
        """Run a per-bucket ``(n,)`` kernel and scatter rows into place."""
        out = np.zeros(len(self.households))
        for rows, bucket in self.buckets:
            out[rows] = getattr(bucket, kernel_name)(*args, **kwargs)
        return out

    def demand_profiles(self, weather: Optional[WeatherSample] = None) -> np.ndarray:
        """``(N, S)`` demand matrix in population order (rows bit-identical
        to each household's scalar ``demand_profile``)."""
        factor = self.heating_factor(weather)
        cached = self._demand_cache.get(factor)
        if cached is not None:
            return cached
        total = np.zeros((len(self.households), self.slots_per_day))
        for rows, bucket in self.buckets:
            total[rows] = bucket.demand_profiles(weather)
        total.setflags(write=False)
        _fifo_put(self._demand_cache, factor, total)
        return total

    def aggregate_demand(self, weather: Optional[WeatherSample] = None) -> LoadProfile:
        return LoadProfile.from_array(self.demand_profiles(weather).sum(axis=0))

    def energy_in(
        self, interval: TimeInterval, weather: Optional[WeatherSample] = None
    ) -> np.ndarray:
        return self._scatter("energy_in", interval, weather)

    def average_in(
        self, interval: TimeInterval, weather: Optional[WeatherSample] = None
    ) -> np.ndarray:
        return self._scatter("average_in", interval, weather)

    def saveable_energy(
        self, interval: TimeInterval, weather: Optional[WeatherSample] = None
    ) -> np.ndarray:
        return self._scatter("saveable_energy", interval, weather)

    def max_cutdown_fractions(
        self,
        interval: TimeInterval,
        weather: Optional[WeatherSample] = None,
        demand_energies: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        out = np.zeros(len(self.households))
        for rows, bucket in self.buckets:
            sliced = demand_energies[rows] if demand_energies is not None else None
            out[rows] = bucket.max_cutdown_fractions(
                interval, weather, demand_energies=sliced
            )
        return out


#: Either columnar layout — what :func:`pack_fleet` returns.  The two share
#: the full planning-kernel surface and are interchangeable for callers.
Fleet = Union[HouseholdFleet, BucketedFleet]


def pack_fleet(households: Sequence[Household]) -> Fleet:
    """Pack ``households`` into the best columnar layout that fits.

    The single-matrix :class:`HouseholdFleet` when the population is
    appliance-homogeneous (no bucketing overhead), otherwise a
    :class:`BucketedFleet`.  Raises :class:`FleetIncompatibleError` only for
    genuinely unpackable populations (mixed profile resolutions) and a plain
    :class:`ValueError` for empty input.
    """
    try:
        return HouseholdFleet(households)
    except FleetIncompatibleError:
        return BucketedFleet(households)
