"""Pretty-printers for every pipeline stage.

Renders the module of any stage as readable text — used by the CLI
(``python -m repro``), the dump example, and debugging sessions.
"""

from repro.langs.ir import cminor as cm
from repro.langs.ir import csharpminor as csm
from repro.langs.ir import linear as ln
from repro.langs.ir import ltl
from repro.langs.ir import mach as mh
from repro.langs.ir import rtl
from repro.langs.minic import ast as mc
from repro.langs.minic.ast import MiniCModule
from repro.langs.x86.ast import X86Function


def _indent(lines, by="  "):
    return [by + line for line in lines]


# ----- MiniC ------------------------------------------------------------------


def _mc_expr(e):
    if isinstance(e, mc.IntLit):
        return str(e.n)
    if isinstance(e, mc.VarExpr):
        return e.name
    if isinstance(e, mc.AddrOf):
        return "&" + e.name
    if isinstance(e, mc.Deref):
        return "*" + _mc_expr(e.arg)
    if isinstance(e, mc.Unop):
        return "({}{})".format(e.op, _mc_expr(e.arg))
    if isinstance(e, mc.Binop):
        return "({} {} {})".format(
            _mc_expr(e.left), e.op, _mc_expr(e.right)
        )
    if isinstance(e, mc.Call):
        return "{}({})".format(
            e.fname, ", ".join(_mc_expr(a) for a in e.args)
        )
    return repr(e)


def _mc_lhs(lhs):
    if isinstance(lhs, mc.LhsVar):
        return lhs.name
    return "*" + _mc_expr(lhs.arg)


def _mc_stmt(s):
    if isinstance(s, mc.SSkip):
        return ["skip;"]
    if isinstance(s, mc.SDecl):
        if s.init is None:
            return ["int {};".format(s.name)]
        return ["int {} = {};".format(s.name, _mc_expr(s.init))]
    if isinstance(s, mc.SAssign):
        return ["{} = {};".format(_mc_lhs(s.lhs), _mc_expr(s.expr))]
    if isinstance(s, mc.SCallStmt):
        call = _mc_expr(s.call)
        if s.dst is None:
            return [call + ";"]
        return ["{} = {};".format(_mc_lhs(s.dst), call)]
    if isinstance(s, mc.SPrint):
        return ["print({});".format(_mc_expr(s.expr))]
    if isinstance(s, mc.SSpawn):
        return ["spawn {};".format(s.fname)]
    if isinstance(s, mc.SIf):
        lines = ["if ({}) {{".format(_mc_expr(s.cond))]
        lines += _indent(_mc_stmt(s.then))
        lines.append("} else {")
        lines += _indent(_mc_stmt(s.els))
        lines.append("}")
        return lines
    if isinstance(s, mc.SWhile):
        lines = ["while ({}) {{".format(_mc_expr(s.cond))]
        lines += _indent(_mc_stmt(s.body))
        lines.append("}")
        return lines
    if isinstance(s, mc.SBlock):
        out = []
        for sub in s.stmts:
            out += _mc_stmt(sub)
        return out
    if isinstance(s, mc.SReturn):
        if s.expr is None:
            return ["return;"]
        return ["return {};".format(_mc_expr(s.expr))]
    return [repr(s)]


def _pp_minic(module):
    lines = []
    for name, addr in sorted(module.symbols.items()):
        lines.append("// global {} @ {}".format(name, addr))
    for name, func in sorted(module.functions.items()):
        params = ", ".join(
            "{} {}".format(
                "int*" if ty == mc.PTR else "int", pname
            )
            for pname, ty in func.params
        )
        lines.append("{}({}) {{".format(name, params))
        lines += _indent(_mc_stmt(func.body))
        lines.append("}")
        lines.append("")
    return lines


# ----- structured IRs ----------------------------------------------------------


def _csm_expr(e):
    if isinstance(e, csm.EConst):
        return str(e.n)
    if isinstance(e, csm.ETemp):
        return "${}".format(e.name)
    if isinstance(e, csm.EAddrLocal):
        return "&local:{}".format(e.name)
    if isinstance(e, csm.EAddrGlobal):
        return "&{}".format(e.name)
    if isinstance(e, cm.EAddrStack):
        return "&stack[{}]".format(e.ofs)
    if isinstance(e, csm.ELoad):
        return "[{}]".format(_csm_expr(e.addr))
    if isinstance(e, csm.EUnop):
        return "({}{})".format(e.op, _csm_expr(e.arg))
    if isinstance(e, csm.EBinop):
        return "({} {} {})".format(
            _csm_expr(e.left), e.op, _csm_expr(e.right)
        )
    return repr(e)


def _csm_stmt(s):
    if isinstance(s, csm.SSkip):
        return ["skip;"]
    if isinstance(s, csm.SSet):
        return ["${} := {};".format(s.temp, _csm_expr(s.expr))]
    if isinstance(s, csm.SStore):
        return ["[{}] := {};".format(
            _csm_expr(s.addr), _csm_expr(s.expr))]
    if isinstance(s, csm.SCall):
        call = "{}({}){}".format(
            s.fname,
            ", ".join(_csm_expr(a) for a in s.args),
            " /*ext*/" if s.external else "",
        )
        if s.dst is None:
            return [call + ";"]
        return ["${} := {};".format(s.dst, call)]
    if isinstance(s, csm.SPrint):
        return ["print({});".format(_csm_expr(s.expr))]
    if isinstance(s, csm.SSpawn):
        return ["spawn {};".format(s.fname)]
    if isinstance(s, csm.SSeq):
        out = []
        for sub in s.stmts:
            out += _csm_stmt(sub)
        return out
    if isinstance(s, csm.SIf):
        lines = ["if ({}) {{".format(_csm_expr(s.cond))]
        lines += _indent(_csm_stmt(s.then))
        lines.append("} else {")
        lines += _indent(_csm_stmt(s.els))
        lines.append("}")
        return lines
    if isinstance(s, csm.SWhile):
        lines = ["while ({}) {{".format(_csm_expr(s.cond))]
        lines += _indent(_csm_stmt(s.body))
        lines.append("}")
        return lines
    if isinstance(s, csm.SReturn):
        if s.expr is None:
            return ["return;"]
        return ["return {};".format(_csm_expr(s.expr))]
    return [repr(s)]


def _pp_structured(module):
    lines = []
    for name, func in sorted(module.functions.items()):
        if isinstance(func, csm.CshmFunction):
            header = "{}({}) /* stack: {} */".format(
                name, ", ".join(func.params),
                list(func.stack_locals),
            )
        else:
            header = "{}(#params={}) /* stacksize: {} */".format(
                name, func.nparams, func.stacksize
            )
        lines.append(header + " {")
        lines += _indent(_csm_stmt(func.body))
        lines.append("}")
        lines.append("")
    return lines


# ----- CFG IRs -----------------------------------------------------------------


def _pp_cfg(module, header_fn):
    lines = []
    for name, func in sorted(module.functions.items()):
        lines.append(header_fn(func))
        for pc in sorted(func.code):
            lines.append("  {:4d}: {!r}".format(pc, func.code[pc]))
        lines.append("")
    return lines


def _pp_listing(module, header_fn):
    lines = []
    for name, func in sorted(module.functions.items()):
        lines.append(header_fn(func))
        for idx, instr in enumerate(func.code):
            lines.append("  {:4d}: {!r}".format(idx, instr))
        lines.append("")
    return lines


def pp_module(module):
    """Render any pipeline stage's module as a list of text lines."""
    if isinstance(module, MiniCModule):
        return _pp_minic(module)
    sample = next(iter(module.functions.values()), None)
    if sample is None:
        return ["(empty module)"]
    if isinstance(sample, (csm.CshmFunction, cm.CmFunction)):
        return _pp_structured(module)
    if isinstance(sample, rtl.RTLFunction):
        return _pp_cfg(
            module,
            lambda f: "{} (params={}, stacksize={}, entry={}):".format(
                f.name, list(f.params), f.stacksize, f.entry
            ),
        )
    if isinstance(sample, ltl.LTLFunction):
        return _pp_cfg(
            module,
            lambda f: "{} (slots={}, stacksize={}, entry={}):".format(
                f.name, f.numslots, f.stacksize, f.entry
            ),
        )
    if isinstance(sample, ln.LinearFunction):
        return _pp_listing(
            module,
            lambda f: "{} (slots={}, stacksize={}):".format(
                f.name, f.numslots, f.stacksize
            ),
        )
    if isinstance(sample, mh.MachFunction):
        return _pp_listing(
            module,
            lambda f: "{} (framesize={}):".format(f.name, f.framesize),
        )
    if isinstance(sample, X86Function):
        return _pp_listing(module, lambda f: "{}:".format(f.name))
    return [repr(module)]


def dump_stage(stage):
    """Render one :class:`~repro.compiler.pipeline.Stage` as text."""
    title = "==== {} ({}) ====".format(stage.name, stage.lang.name)
    return "\n".join([title] + pp_module(stage.module))


def dump_pipeline(result):
    """Render a whole :class:`CompilationResult`."""
    return "\n".join(dump_stage(stage) for stage in result.stages)
