"""Whole-program container: functions plus global data.

Globals live in a flat byte-addressed data segment.  Each
:class:`GlobalVar` is assigned an address when the program is laid out
(:meth:`Program.layout`); ``li`` instructions with a string immediate
resolve to that address at execution time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Instruction

#: Base address of the global data segment (past a null guard page).
DATA_BASE = 0x1000
#: Base address of the stack-like bump region used for guest "allocations".
HEAP_BASE = 0x100000


@dataclass(eq=False, slots=True)
class GlobalVar:
    """A global variable or array in the data segment.

    Attributes:
        name: Symbol name.
        size_bytes: Total size in bytes (arrays: element count * 4).
        init: Optional initial word values (zero-filled otherwise).
        address: Assigned by :meth:`Program.layout`; -1 before layout.
    """

    name: str
    size_bytes: int
    init: list[int] | None = None
    address: int = -1


@dataclass(eq=False, slots=True)
class Program:
    """A complete program: named functions and global variables."""

    functions: dict[str, Function] = field(default_factory=dict)
    globals: dict[str, GlobalVar] = field(default_factory=dict)
    entry: str = "main"

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise ValueError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func
        return func

    def add_global(self, name: str, size_bytes: int, init: list[int] | None = None) -> GlobalVar:
        if name in self.globals:
            raise ValueError(f"duplicate global {name!r}")
        var = GlobalVar(name, size_bytes, init)
        self.globals[name] = var
        return var

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"no function {name!r} in program") from None

    def layout(self) -> None:
        """Assign word-aligned addresses to all globals."""
        addr = DATA_BASE
        for var in self.globals.values():
            var.address = addr
            addr += (var.size_bytes + 3) & ~3

    def global_address(self, name: str) -> int:
        var = self.globals[name]
        if var.address < 0:
            self.layout()
        return var.address

    def clone(self) -> "Program":
        """A structural copy that shares nothing mutable with ``self``.

        Functions, blocks, instructions, operand lists and globals are new
        objects; uids, the vreg counters, frame sizes and FP parameter sets
        carry over.  Registers are immutable and shared.
        """
        functions = {
            name: Function(
                name=func.name,
                n_params=func.n_params,
                blocks=[
                    BasicBlock(
                        blk.label,
                        [
                            Instruction(
                                i.op, list(i.defs), list(i.uses), i.imm, i.target, i.uid
                            )
                            for i in blk.instructions
                        ],
                    )
                    for blk in func.blocks
                ],
                returns_value=func.returns_value,
                frame_size=func.frame_size,
                fp_params=set(func.fp_params),
                _next_uid=func._next_uid,
                _next_vreg=func._next_vreg,
            )
            for name, func in self.functions.items()
        }
        globals_ = {
            name: GlobalVar(
                var.name,
                var.size_bytes,
                None if var.init is None else list(var.init),
                var.address,
            )
            for name, var in self.globals.items()
        }
        return Program(functions, globals_, self.entry)

    def instruction_count(self) -> int:
        """Total static instruction count across all functions."""
        return sum(f.instruction_count() for f in self.functions.values())

    def __repr__(self) -> str:
        return (
            f"<Program entry={self.entry!r}, {len(self.functions)} functions, "
            f"{self.instruction_count()} instrs, {len(self.globals)} globals>"
        )
