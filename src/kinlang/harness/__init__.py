"""Experiment drivers, configuration, persistence, CLI.

The public names are imported from their submodules on first use, so
loading a config imports neither the experiment drivers nor the record
writer.
"""

from .._lazy import namespace

__all__, __getattr__, __dir__ = namespace(__name__, {
    "config": ("ConfigError", "ExperimentConfig", "config_hash", "load_config",
               "load_config_file"),
    "experiments": ("ExperimentRecord", "fit_decay_rate", "run_chaos", "run_contraction",
                    "run_experiment", "run_moments"),
    "record": ("record_json", "write_record"),
})
