"""Error taxonomy shared across modules.

ConfigError -> CLI exit code 2 (bad scenario/arguments, unwritable output).
SimError and subclasses (see kernel) -> exit code 3 (internal invariant). A
raise site names only what it alone knows (the flow, the values);
`Simulation.run` adds the clock, the event and the handover (README "CLI").
"""

from .kernel import SimError


class ConfigError(Exception):
    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        where = []
        if line is not None:
            where.append(f"line {line}")
        if key is not None:
            where.append(f"key {key!r}")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)
        self.line = line
        self.key = key


class ProtocolViolation(SimError):
    """A simulated endpoint observed an impossible input (simulation bug)."""
