"""Exception hierarchy shared by all modules.

InputError covers anything a user can fix (files, configs, infeasible
requests) and maps to CLI exit code 2. ContractError and NumericError are
internal violations and map to exit code 3.
"""


class SbaError(Exception):
    pass


class InputError(SbaError):
    """Bad user input: missing files, malformed configs, infeasible requests."""


class ConfigError(InputError):
    """Run-configuration problem (strict schema violation, bad field value)."""


class DataLoadError(InputError):
    """A dataset file failed to load."""


class HeaderMismatchError(DataLoadError):
    """Payload shape disagrees with the declared header."""


class NanPayloadError(DataLoadError):
    """Series payload contains NaN or infinite values."""


class NodeCountError(DataLoadError):
    """Series node count disagrees with the graph."""


class ContractError(SbaError):
    """An internal pre/postcondition was violated."""


class ShapeError(ContractError):
    """Tensor shapes incompatible with the requested operation."""


class EmptyRunError(ContractError):
    """A run of rows (one subgraph's rows) is empty."""


class NumericError(SbaError):
    """Non-finite values or a solver that failed to converge."""
