"""Package exception types."""


class ContractError(ValueError):
    """A precondition or dimension contract was violated."""


class RolloutError(RuntimeError):
    """An environment produced a non-finite value mid-episode, or training
    produced a non-finite loss. `row` is the batch row that failed, when the
    error came from a batched rollout."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class PlanError(ValueError):
    """An experiment plan file failed validation."""


class CheckpointError(ValueError):
    """A cell's stored state cannot be used: a checkpoint of another format
    version, seed or configuration or without a field that a resume reads,
    or a record.json not its cell's record."""
