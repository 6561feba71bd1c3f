"""Interrupt injection for resume tests: a sweep cut mid-ES, as by Ctrl-C."""

import contextlib

import pytest

from refine_es import engine


@contextlib.contextmanager
def interrupt_after_generation(n):
    """Within the block, `engine.tdes_run` raises KeyboardInterrupt right
    after generation `n` is checkpointed."""
    original = engine.tdes_run

    def tdes_run(*args, checkpoint_cb=None, **kwargs):
        def checkpoint_then_interrupt(state):
            if checkpoint_cb is not None:
                checkpoint_cb(state)
            if state["generation_index"] == n:
                raise KeyboardInterrupt(
                    f"injected interrupt after generation {n}")
        return original(*args, checkpoint_cb=checkpoint_then_interrupt,
                        **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "tdes_run", tdes_run)
        yield
