"""Experiment harness: config, commands, CLI, self-test."""

from .commands import (
    cmd_communication,
    cmd_concentration,
    cmd_inefficiency,
    cmd_spectrum,
    find_min_budget,
)
from .config import ExperimentConfig, load_config, parse_config_file
from .spotcheck import run_selftest, spot_check_outputs

__all__ = [
    "ExperimentConfig",
    "cmd_communication",
    "cmd_concentration",
    "cmd_inefficiency",
    "cmd_spectrum",
    "find_min_budget",
    "load_config",
    "parse_config_file",
    "run_selftest",
    "spot_check_outputs",
]
