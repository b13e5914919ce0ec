"""Per-operation energy models for a 45 nm CMOS process.

``ENERGY_TABLE_45NM`` reproduces Table I of the paper (energy per basic
arithmetic and memory operation, from Horowitz's 45 nm energy table).  The
:class:`EnergyModel` combines these unit energies with operation counts
produced by the simulators to estimate the energy of an EIE inference or of a
DRAM-based dense baseline, which underlies the 120x / 10x / 8x / 3x savings
decomposition and Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.hardware.area import chip_power_w
from repro.hardware.sram import sram_read_energy_pj
from repro.utils.validation import require_in, require_non_negative

if TYPE_CHECKING:
    from repro.core.config import EIEConfig
    from repro.core.cycle_model import CycleStats
    from repro.core.functional import FunctionalResult
    from repro.core.stats import EnergyStats

__all__ = [
    "OperationEnergy",
    "EnergyTable",
    "ENERGY_TABLE_45NM",
    "multiply_energy_pj",
    "MULTIPLY_ENERGY_PJ",
    "EnergyModel",
    "EnergyBreakdown",
    "counter_energy",
]


@dataclass(frozen=True)
class OperationEnergy:
    """Energy of one basic operation.

    Attributes:
        name: human readable operation name as it appears in Table I.
        energy_pj: energy per operation in picojoules.
        relative_cost: cost relative to a 32-bit integer add (Table I column 3).
    """

    name: str
    energy_pj: float
    relative_cost: float

    def total_pj(self, count: int) -> float:
        """Energy in pJ for ``count`` repetitions of this operation."""
        require_non_negative("count", count)
        return self.energy_pj * count


@dataclass(frozen=True)
class EnergyTable:
    """A table of per-operation energies for one technology node.

    The default instance, :data:`ENERGY_TABLE_45NM`, carries the exact values
    of Table I in the paper.
    """

    technology_nm: int
    int32_add_pj: float
    float32_add_pj: float
    int32_mult_pj: float
    float32_mult_pj: float
    sram32_read_pj: float
    dram32_read_pj: float

    def as_operations(self) -> tuple[OperationEnergy, ...]:
        """Return the table as Table-I-style rows (relative to int32 add)."""
        base = self.int32_add_pj
        rows = (
            ("32 bit int ADD", self.int32_add_pj),
            ("32 bit float ADD", self.float32_add_pj),
            ("32 bit int MULT", self.int32_mult_pj),
            ("32 bit float MULT", self.float32_mult_pj),
            ("32 bit 32KB SRAM", self.sram32_read_pj),
            ("32 bit DRAM", self.dram32_read_pj),
        )
        return tuple(
            OperationEnergy(name=name, energy_pj=pj, relative_cost=pj / base)
            for name, pj in rows
        )

    @property
    def dram_over_sram(self) -> float:
        """DRAM-to-SRAM energy ratio (the paper quotes 128x)."""
        return self.dram32_read_pj / self.sram32_read_pj


#: Table I of the paper: energy for a 45 nm CMOS process.
ENERGY_TABLE_45NM = EnergyTable(
    technology_nm=45,
    int32_add_pj=0.1,
    float32_add_pj=0.9,
    int32_mult_pj=3.1,
    float32_mult_pj=3.7,
    sram32_read_pj=5.0,
    dram32_read_pj=640.0,
)

#: Multiplier energy versus arithmetic precision (Figure 10, left axis).
#: The paper states that 16-bit fixed-point multiplication consumes 5x less
#: energy than 32-bit fixed-point and 6.2x less than 32-bit floating point.
MULTIPLY_ENERGY_PJ: dict[str, float] = {
    "float32": ENERGY_TABLE_45NM.float32_mult_pj,           # 3.7 pJ
    "int32": ENERGY_TABLE_45NM.int32_mult_pj,               # 3.1 pJ
    "int16": ENERGY_TABLE_45NM.int32_mult_pj / 5.0,         # ~0.62 pJ
    "int8": ENERGY_TABLE_45NM.int32_mult_pj / 5.0 / 3.1,    # ~0.2 pJ
}


def multiply_energy_pj(precision: str) -> float:
    """Energy of one multiplication at ``precision``.

    ``precision`` is one of ``float32``, ``int32``, ``int16``, ``int8``.
    """
    require_in("precision", precision, MULTIPLY_ENERGY_PJ)
    return MULTIPLY_ENERGY_PJ[precision]


def add_energy_pj(precision: str) -> float:
    """Energy of one addition at ``precision`` (scaled from Table I)."""
    require_in("precision", precision, MULTIPLY_ENERGY_PJ)
    if precision == "float32":
        return ENERGY_TABLE_45NM.float32_add_pj
    scale = {"int32": 1.0, "int16": 0.5, "int8": 0.25}[precision]
    return ENERGY_TABLE_45NM.int32_add_pj * scale


@dataclass
class EnergyBreakdown:
    """Energy of one inference broken down by source, all in picojoules."""

    sram_read_pj: float = 0.0
    dram_read_pj: float = 0.0
    multiply_pj: float = 0.0
    add_pj: float = 0.0
    overhead_pj: float = 0.0

    @property
    def total_pj(self) -> float:
        """Total energy in picojoules."""
        return (
            self.sram_read_pj
            + self.dram_read_pj
            + self.multiply_pj
            + self.add_pj
            + self.overhead_pj
        )

    @property
    def total_nj(self) -> float:
        """Total energy in nanojoules."""
        return self.total_pj / 1e3

    @property
    def total_uj(self) -> float:
        """Total energy in microjoules."""
        return self.total_pj / 1e6

    def scaled(self, factor: float) -> "EnergyBreakdown":
        """Return a copy with every component multiplied by ``factor``."""
        return EnergyBreakdown(
            sram_read_pj=self.sram_read_pj * factor,
            dram_read_pj=self.dram_read_pj * factor,
            multiply_pj=self.multiply_pj * factor,
            add_pj=self.add_pj * factor,
            overhead_pj=self.overhead_pj * factor,
        )


@dataclass
class EnergyModel:
    """Combines unit energies with operation counts.

    The model distinguishes where weights are fetched from (on-chip SRAM for
    EIE, off-chip DRAM for an uncompressed baseline) and which arithmetic
    precision is used, capturing the four energy-saving factors the paper
    decomposes: DRAM->SRAM (120x), sparsity (10x), weight sharing (8x) and
    activation sparsity (3x).

    Attributes:
        table: the per-operation energy table (defaults to 45 nm, Table I).
        precision: arithmetic precision used for multiply/accumulate.
        sram_read_pj_per_32b: energy of one 32-bit-equivalent SRAM read.
        dram_read_pj_per_32b: energy of one 32-bit-equivalent DRAM read.
        ecc_scheme: ECC protection on the weight SRAMs (``"none"``,
            ``"parity"`` or ``"secded"``); protected reads fetch check bits
            alongside the data and pay the corresponding energy factor
            (:func:`~repro.hardware.sram.ecc_read_energy_factor`).
    """

    table: EnergyTable = field(default_factory=lambda: ENERGY_TABLE_45NM)
    precision: str = "int16"
    sram_read_pj_per_32b: float | None = None
    dram_read_pj_per_32b: float | None = None
    ecc_scheme: str = "none"

    def __post_init__(self) -> None:
        require_in("precision", self.precision, MULTIPLY_ENERGY_PJ)
        if self.sram_read_pj_per_32b is None:
            self.sram_read_pj_per_32b = self.table.sram32_read_pj
        if self.dram_read_pj_per_32b is None:
            self.dram_read_pj_per_32b = self.table.dram32_read_pj
        from repro.reliability.ecc import ECC_SCHEMES

        require_in("ecc_scheme", self.ecc_scheme, ECC_SCHEMES)

    # -- elementary energies -------------------------------------------------

    def mac_energy_pj(self) -> float:
        """Energy of one multiply-accumulate at the configured precision."""
        return multiply_energy_pj(self.precision) + add_energy_pj(self.precision)

    def memory_read_energy_pj(self, bits: float, location: str) -> float:
        """Energy of fetching ``bits`` bits from ``location`` (sram or dram).

        SRAM reads pay the configured ECC scheme's read-energy factor (check
        bits come out of the array with the data); DRAM reads are unaffected.
        """
        require_in("location", location, ("sram", "dram"))
        require_non_negative("bits", bits)
        if location == "sram":
            from repro.hardware.sram import ecc_read_energy_factor

            return (
                self.sram_read_pj_per_32b
                * ecc_read_energy_factor(self.ecc_scheme)
                * bits
                / 32.0
            )
        return self.dram_read_pj_per_32b * bits / 32.0

    # -- composite estimates -------------------------------------------------

    def matrix_vector_energy(
        self,
        weight_reads: int,
        weight_bits: float,
        activation_reads: int,
        activation_bits: float,
        macs: int,
        weight_location: str = "sram",
    ) -> EnergyBreakdown:
        """Energy of one M x V given explicit counts.

        Args:
            weight_reads: number of weight fetches performed.
            weight_bits: bits per weight fetch (4 for the compressed model,
                32 for an uncompressed float baseline).
            activation_reads: number of activation fetches.
            activation_bits: bits per activation fetch.
            macs: number of multiply-accumulate operations.
            weight_location: ``"sram"`` or ``"dram"``.
        """
        require_non_negative("weight_reads", weight_reads)
        require_non_negative("activation_reads", activation_reads)
        require_non_negative("macs", macs)
        weight_energy = weight_reads * self.memory_read_energy_pj(weight_bits, weight_location)
        act_energy = activation_reads * self.memory_read_energy_pj(activation_bits, "sram")
        breakdown = EnergyBreakdown(
            multiply_pj=macs * multiply_energy_pj(self.precision),
            add_pj=macs * add_energy_pj(self.precision),
        )
        if weight_location == "sram":
            breakdown.sram_read_pj = weight_energy + act_energy
        else:
            breakdown.dram_read_pj = weight_energy
            breakdown.sram_read_pj = act_energy
        return breakdown

    def dense_baseline_energy(self, rows: int, cols: int, precision: str = "float32") -> EnergyBreakdown:
        """Energy of an uncompressed dense M x V with weights fetched from DRAM.

        This is the reference the paper's 120x / 10x / 8x / 3x factors are
        measured against: every one of ``rows * cols`` weights is a 32-bit
        DRAM fetch and a float MAC.
        """
        macs = int(rows) * int(cols)
        weight_energy = macs * self.memory_read_energy_pj(32, "dram")
        act_energy = macs * self.memory_read_energy_pj(32, "sram")
        return EnergyBreakdown(
            dram_read_pj=weight_energy,
            sram_read_pj=act_energy,
            multiply_pj=macs * multiply_energy_pj(precision),
            add_pj=macs * add_energy_pj(precision),
        )

    def theoretical_saving_factors(
        self,
        weight_density: float,
        activation_density: float,
        weight_bits: int = 4,
    ) -> dict[str, float]:
        """The paper's multiplicative energy-saving decomposition.

        Returns a dict with the four factors (``dram_to_sram``, ``sparsity``,
        ``weight_sharing``, ``activation_sparsity``) and their product
        (``total``).  With the paper's typical numbers (10% weights, 4-bit
        weights, 30% activations) this reproduces 120 x 10 x 8 x 3 = 28,800.
        """
        if not 0 < weight_density <= 1 or not 0 < activation_density <= 1:
            raise ConfigurationError("densities must be in (0, 1]")
        factors = {
            "dram_to_sram": self.dram_read_pj_per_32b / self.sram_read_pj_per_32b,
            "sparsity": 1.0 / weight_density,
            "weight_sharing": 32.0 / weight_bits,
            "activation_sparsity": 1.0 / activation_density,
        }
        factors["total"] = (
            factors["dram_to_sram"]
            * factors["sparsity"]
            * factors["weight_sharing"]
            * factors["activation_sparsity"]
        )
        return factors


def counter_energy(
    functional: FunctionalResult, cycles: CycleStats, config: EIEConfig
) -> EnergyStats:
    """Bottom-up energy of one EIE layer run from its access counters.

    Prices the functional run's Spmat and pointer SRAM reads with the SRAM
    read-energy model at the configured widths and capacities, activation
    register accesses at 0.1 pJ and MACs at 16-bit precision.  The
    top-down alternative, chip power times execution time, is
    :attr:`~repro.models.compressed.ModelRunResult.energy_j`.
    """
    from repro.core.stats import EnergyStats

    counters = functional.counters
    spmat_pj = counters.spmat_sram_reads * sram_read_energy_pj(
        config.spmat_sram_width_bits, config.spmat_sram_kb
    )
    ptr_pj = counters.ptr_sram_reads * sram_read_energy_pj(
        max(config.pointer_bits, 16), config.ptr_sram_kb / 2
    )
    act_pj = (counters.act_reg_reads + counters.act_reg_writes) * 0.1
    mac_pj = counters.macs * EnergyModel(precision="int16").mac_energy_pj()
    breakdown_pj = {
        "spmat_sram": spmat_pj,
        "ptr_sram": ptr_pj,
        "act_regs": act_pj,
        "arithmetic": mac_pj,
    }
    dynamic_j = sum(breakdown_pj.values()) * 1e-12
    # Clock / leakage overhead: the chip draws its rated power for the
    # duration of the layer; use the larger of the two estimates so short
    # layers are not credited with unrealistically low energy.
    power_w = chip_power_w(config.num_pes)
    power_based_j = power_w * cycles.time_s
    energy_j = max(dynamic_j, power_based_j)
    return EnergyStats(
        energy_j=energy_j,
        power_w=power_w,
        breakdown={name: value * 1e-12 for name, value in breakdown_pj.items()},
    )
