"""The per-packet handlers read plain values and run-bound flags, not Enums,
schedule their events without building a callable per packet, run the
coupling rules on every ACK without building a list, and clamp with plain
comparisons, not the builtins `min` and `max`.

`CouplingMode.UNCOUPLED` is a global lookup plus a class-attribute lookup
on every call; the handlers compare against module-level aliases,
constructor-bound flags and plain-string phases instead. This guards that
choice against a well-meant edit that brings the Enum lookups back.
"""

import dis

import pytest

from mpsim import coupling
from mpsim.connection import ReassemblyState, schedule_next
from mpsim.netmodel import Link
from mpsim.simkernel import SimKernel
from mpsim.simulation import Simulation
from mpsim.subflow import RttEstimator, Subflow

ENUMS = {"Phase", "CouplingMode", "DetectorChoice", "TraceEvent"}

HOT = [getattr(Simulation, name) for name in (
    "_on_data", "_on_ack", "_on_advancing_ack", "_on_duplicate_ack",
    "_send_mapping", "_grow", "_on_trace_sample")]
HOT += [coupling.on_ack_increase, coupling.compute_alpha,
        coupling.window_total, coupling.on_loss_decrease, Link.transmit]


@pytest.mark.parametrize("fn", HOT, ids=lambda fn: fn.__qualname__)
def test_hot_path_loads_no_enum_class(fn):
    loaded = {instr.argval for instr in dis.get_instructions(fn)
              if instr.opname in ("LOAD_GLOBAL", "LOAD_NAME")}
    assert not loaded & ENUMS


# An event's arguments travel in its kernel entry as a plain tuple: a
# functools.partial per segment, ACK or timer re-arm would add a partial
# object and a kwargs dict to every event.
SCHEDULERS = [getattr(Simulation, name) for name in (
    "_send_mapping", "_on_data", "_arm_rto")]


@pytest.mark.parametrize("fn", SCHEDULERS, ids=lambda fn: fn.__qualname__)
def test_packet_events_build_no_partial(fn):
    loaded = {instr.argval for instr in dis.get_instructions(fn)
              if instr.opname in ("LOAD_GLOBAL", "LOAD_NAME", "LOAD_ATTR",
                                  "LOAD_METHOD")}
    assert "partial" not in loaded


# The coupling rules read each subflow's window and RTT in place. Lists of
# them built per congestion-avoidance ACK, only to be read back once, cost
# more than the rules themselves.
PER_ACK = [Simulation._grow, coupling.on_ack_increase, coupling.compute_alpha,
           coupling.window_total, Subflow.ack_update]
BUILDS = {"BUILD_LIST", "LIST_APPEND", "SET_ADD", "MAP_ADD"}


@pytest.mark.parametrize("fn", PER_ACK, ids=lambda fn: fn.__qualname__)
def test_per_ack_path_builds_no_list(fn):
    assert not {instr.opname for instr in dis.get_instructions(fn)} & BUILDS
    # a comprehension or generator runs as a nested code object (a list
    # comprehension is inlined from Python 3.12, and caught above)
    assert not [c for c in fn.__code__.co_consts if hasattr(c, "co_code")]


def test_grow_calls_no_simulation_helper():
    helpers = {name for name, value in vars(Simulation).items()
               if callable(value)}
    loaded = {instr.argval for instr in dis.get_instructions(Simulation._grow)
              if instr.opname in ("LOAD_ATTR", "LOAD_METHOD")}
    assert not loaded & helpers


# On CPython 3.11 a call of the builtin `min` or `max` on two floats costs
# several times the one or two comparisons it makes, and these functions
# run once per packet, ACK or RTT sample.
PER_PACKET = [getattr(Simulation, name) for name in (
    "_on_data", "_on_ack", "_on_advancing_ack", "_on_duplicate_ack",
    "_send_mapping", "_grow", "_arm_rto")]
PER_PACKET += [RttEstimator.update, Subflow.ack_update,
               coupling.on_ack_increase, coupling.compute_alpha,
               coupling.window_total, Link.transmit, schedule_next,
               SimKernel.schedule, SimKernel.run_until_idle,
               ReassemblyState.on_data]


@pytest.mark.parametrize("fn", PER_PACKET, ids=lambda fn: fn.__qualname__)
def test_per_packet_path_calls_no_min_or_max(fn):
    loaded = {instr.argval for instr in dis.get_instructions(fn)
              if instr.opname in ("LOAD_GLOBAL", "LOAD_NAME")}
    assert not loaded & {"min", "max"}
