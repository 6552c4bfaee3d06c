"""Experiment drivers, configuration, persistence, CLI."""

from .config import ConfigError, ExperimentConfig, config_hash, load_config, load_config_file
from .experiments import (ExperimentRecord, fit_decay_rate, run_chaos,
                          run_contraction, run_experiment, run_moments)
from .record import record_json, write_record
