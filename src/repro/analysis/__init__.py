"""Analysis layer: the per-point primitives behind the paper's evaluation.

Every table, figure and ablation is a registered experiment of
:mod:`repro.experiments` (see :mod:`repro.experiments.catalog`); its
``ExperimentResult.records`` are the one result shape.  The modules here hold
the primitives those experiments call for each grid point:

* :mod:`repro.analysis.speedup` — per-frame times of the seven Figure 6
  configurations (``layer_times``).
* :mod:`repro.analysis.energy_efficiency` — per-frame energies of the same
  configurations for Figure 7 (``layer_energies``).
* :mod:`repro.analysis.design_space` — the Figure 10 precision proxy.
* :mod:`repro.analysis.ablation` — the codebook-size ablation's weight
  population and per-size fit.
* :mod:`repro.analysis.tables` — Tables I-III and V row builders.
* :mod:`repro.analysis.report` — plain-text rendering helpers used by the
  renderers, the benchmark harness and the examples.
"""
