"""Source splicing for the batch engine's generated kernels.

:mod:`repro.sim.batch` writes its event loop once, as Python source with
two kinds of markers, and compiles one specialized copy per *variant* (a
small discrete key: design family, predictor kind, page policies, MLP
on/off, ...). This module is the tiny preprocessor behind that:

* **Conditionals** — a line that is exactly ``#if <expr>``, ``#elif
  <expr>``, ``#else`` or ``#endif`` keeps or drops the lines between them.
  ``<expr>`` is evaluated over the variant's flags plus the enclosing
  fragment's parameters, so branches on constants disappear from the
  compiled code.
* **Splices** — a line that is exactly ``@name`` or ``@name(k=v, ...)``
  (the arguments may continue over several lines) is replaced by the
  fragment ``name``, re-indented to the marker's
  column. Inside a fragment, ``$param`` / ``${param}`` placeholders take
  the call's arguments (and the variant's flags). A fragment is either a
  source string or a callable ``(splicer, params) -> (text, params)`` that
  can register bookkeeping before handing back its text.

The DRAM reservation arithmetic (:data:`RESERVE`, one copy of the
reference :meth:`repro.dram.device.PriorityTimeline.reserve` composition)
is one such fragment; every demand and background access of every kernel,
and the fuzzer-facing :func:`repro.sim.batch._device_fns`, splice it.
Each splice site gets its own access counter, so the device's counter
tallies are summed per site once, after the loop, instead of per access.
"""

from __future__ import annotations

import functools
import linecache
import re
import textwrap
from dataclasses import dataclass
from string import Template
from typing import Callable, Dict, List, Optional, Tuple, Union

_DIRECTIVE = re.compile(r"#(if|elif|else|endif)\b\s*(.*)$")
_SPLICE = re.compile(r"@(\w+)(?:\((.*)\))?$")
#: Placeholder line replaced by the site-counter initializer once the whole
#: source is expanded (sites are only known after the loop is spliced).
_SITES_MARK = "__reservation_sites__"

#: Parsed template expressions and dedented fragments, shared by every
#: variant a process compiles.
_code = functools.lru_cache(maxsize=None)(
    lambda expr: compile(expr, "<template>", "eval")
)
_dedent = functools.lru_cache(maxsize=None)(textwrap.dedent)

Fragment = Union[str, Callable[["Splicer", Dict], Tuple[str, Dict]]]


@dataclass(frozen=True)
class Site:
    """One spliced device access: its counter name and static shape."""

    counter: str
    device: str  # local-name prefix of the device ("m_", "s_", ...)
    demand: bool
    write: bool
    burst: str  # source expression of the burst length
    varburst: bool  # burst varies per access (tallied per access)
    row_hit: bool  # statically a row hit (chained access, open page)
    call: Tuple  # the splice's arguments, as sorted (name, value) pairs


class Splicer:
    """Expands one variant's templates; collects its reservation sites."""

    def __init__(self, flags: Dict, fragments: Dict[str, Fragment]) -> None:
        self.flags = dict(flags)
        self.fragments = fragments
        self.sites: List[Site] = []

    def expand(self, text: str, params: Optional[Dict] = None,
               indent: str = "", outer: Optional[Dict] = None) -> List[str]:
        """Expand ``text``; a nested fragment sees its caller's scope
        (flags and parameters) overlaid with its own arguments."""
        scope = dict(self.flags if outer is None else outer)
        if params:
            scope.update(params)
        text = _dedent(text)
        if "$" in text:
            text = Template(text).substitute(scope)
        out: List[str] = []
        # One [keeping, taken] pair per open #if: keeping = this branch's
        # lines are emitted, taken = some branch of the #if already was.
        stack: List[List[bool]] = []
        active = True
        for line in _join_splices(text.splitlines()):
            stripped = line.strip()
            if not stripped:
                continue
            directive = stripped[0] == "#" and _DIRECTIVE.match(stripped)
            if directive:
                word, expr = directive.groups()
                if word == "if":
                    keep = bool(eval(_code(expr), {}, scope))
                    stack.append([keep, keep])
                elif word == "elif":
                    top = stack[-1]
                    top[0] = not top[1] and bool(eval(_code(expr), {}, scope))
                    top[1] = top[1] or top[0]
                elif word == "else":
                    top = stack[-1]
                    top[0] = not top[1]
                    top[1] = True
                else:
                    stack.pop()
                active = all(keep for keep, _ in stack)
                continue
            if not active:
                continue
            splice = stripped[0] == "@" and _SPLICE.match(stripped)
            if not splice:
                out.append(indent + line)
                continue
            name, args = splice.groups()
            pad = indent + line[: len(line) - len(line.lstrip())]
            call = eval(_code(f"dict({args or ''})"), {}, {})
            fragment = self.fragments[name]
            if callable(fragment):
                fragment, call = fragment(self, call)
            out.extend(self.expand(fragment, call, pad, scope))
        if stack:
            raise ValueError("unbalanced #if in template")
        return out


# ----------------------------------------------------------------------
# The reservation fragment
# ----------------------------------------------------------------------
#: One DRAM access: :meth:`DramDevice.access` as two
#: :meth:`PriorityTimeline.reserve` calls, expression for expression. The
#: open-row outcome picks a precomputed ACT + CAS latency (``core``) and
#: its float service cycles (``servc``: ``float(act) + float(t_cas)``).
#: ``$D`` is the device's local-name prefix (see :data:`DEVICE_LOCALS`);
#: the flag ``<prefix>open`` (``sopen`` for ``s_``) is its page policy.
#: Parameters: ``now`` and ``burst`` (names), ``bank``/``ch``/``row``
#: (names, default ``bk``/``ch``/``row``), optional
#: outputs ``done``, ``q`` (bank + bus queue cycles), ``serv`` (service
#: cycles, needs ``burst_f``), ``rh`` (row-hit bool) and ``rh_count``
#: (a counter bumped on row hits). ``chained`` marks an access to the
#: bank and row the previous access of the same sequence just used, so
#: its open-row outcome is static. The page policy (``open_page``) and
#: ``demand``/``background`` are compile-time constants.
RESERVE = """\
#if chained and open_page
core = ${D}thit
#if serv
servc = ${D}hitf
#endif
#if rh
$rh = True
#endif
#if rh_count
$rh_count += 1
#endif
#elif chained or not open_page
core = ${D}tmiss
#if serv
servc = ${D}missf
#endif
#if rh
$rh = False
#endif
#else
open_row = ${D}open[$bank]
if open_row == $row:
    core = ${D}thit
    ${D}rh += 1
#if serv
    servc = ${D}hitf
#endif
#if rh
    $rh = True
#endif
#if rh_count
    $rh_count += 1
#endif
elif open_row is None:
    core = ${D}tmiss
#if serv
    servc = ${D}missf
#endif
#if rh
    $rh = False
#endif
else:
    core = ${D}tconf
#if serv
    servc = ${D}conff
#endif
#if rh
    $rh = False
#endif
#endif
service = core + $burst
#if demand
free = ${D}bdf[$bank]
start = $now if $now >= free else free
backlog = ${D}baf[$bank] - start
if backlog > 0:
    blocked = backlog if backlog <= ${D}bcap else ${D}bcap
    drain = backlog - ${D}wm
    start += blocked + (drain if drain > 0.0 else 0.0)
${D}bdf[$bank] = start + service
free = ${D}baf[$bank]
${D}baf[$bank] = (free if free >= start else start) + service
data_ready = start + core
free = ${D}udf[$ch]
bus_start = data_ready if data_ready >= free else free
backlog = ${D}uaf[$ch] - bus_start
if backlog > 0:
    blocked = backlog if backlog <= ${D}ubcap else ${D}ubcap
    drain = backlog - ${D}uwm
    bus_start += blocked + (drain if drain > 0.0 else 0.0)
${D}udf[$ch] = bus_start + $burst
free = ${D}uaf[$ch]
${D}uaf[$ch] = (free if free >= bus_start else bus_start) + $burst
#if q
$q = (start - $now) + (bus_start - data_ready)
#endif
#else
free = ${D}baf[$bank]
start = $now if $now >= free else free
${D}baf[$bank] = start + service
data_ready = start + core
free = ${D}uaf[$ch]
bus_start = data_ready if data_ready >= free else free
${D}uaf[$ch] = bus_start + $burst
#endif
#if done
$done = bus_start + $burst
#endif
#if serv
$serv = servc + $burst_f
#endif
#if open_page and not chained
${D}open[$bank] = $row
#endif
$site += 1
#if varburst
${D}vbus += $burst
${D}vbyt += $bytes
#endif
"""

#: Binds a device's horizons, open rows and timing constants to locals
#: named with prefix ``$D`` (``_device_state`` builds the tuple).
DEVICE_LOCALS = """\
(${D}bdf, ${D}baf, ${D}udf, ${D}uaf, ${D}open, ${D}thit, ${D}tmiss,
 ${D}tconf, ${D}hitf, ${D}missf, ${D}conff, ${D}bcap, ${D}wm, ${D}ubcap,
 ${D}uwm, ${D}lb, ${D}lbf) = _device_state($dev)
${D}rh = ${D}vbus = ${D}vbyt = 0
"""

_RESERVE_DEFAULTS = dict(
    bank="bk", ch="ch", row="row", demand=False, write=False, chained=False,
    done="", q="", serv="", burst_f="", rh="", rh_count="", bytes="", site="",
)


def reserve(splicer: Splicer, params: Dict) -> Tuple[str, Dict]:
    """The ``@reserve`` fragment: registers a counter site, then hands
    back :data:`RESERVE` with the page policy resolved from the flags."""
    p = dict(_RESERVE_DEFAULTS)
    p.update(params)
    call = dict(params)
    unknown = set(p) - set(_RESERVE_DEFAULTS) - {"D", "now", "burst"}
    if unknown:
        raise ValueError(f"unknown @reserve parameters {sorted(unknown)}")
    # Page policy flag of the device: "s_" -> sopen, "m_" -> mopen, ...
    p["open_page"] = splicer.flags[p["D"].rstrip("_") + "open"]
    p["varburst"] = bool(p["bytes"])
    if not p["site"]:
        p["site"] = call["site"] = f"_k{len(splicer.sites)}"
    splicer.sites.append(Site(
        counter=p["site"],
        device=p["D"],
        demand=p["demand"],
        write=p["write"],
        burst=p["burst"],
        varburst=p["varburst"],
        row_hit=p["chained"] and p["open_page"],
        call=tuple(sorted(call.items())),
    ))
    return RESERVE, p


def device_flush(splicer: Splicer, params: Dict) -> Tuple[str, Dict]:
    """The ``@device_flush(D=..., dev=...)`` fragment: writes the horizons
    back and adds the per-site tallies to the device's counters."""
    prefix = params["D"]
    sites = [s for s in splicer.sites if s.device == prefix]

    def total(chosen) -> str:
        return " + ".join(s.counter for s in chosen) or "0"

    bus = [f"{s.counter} * {s.burst}" for s in sites if not s.varburst]
    byt = [f"{s.counter} * _line_bytes({s.burst}, {prefix}lb)"
           for s in sites if not s.varburst]
    row_hits = " + ".join(
        [f"{prefix}rh"] + [s.counter for s in sites if s.row_hit]
    )
    text = f"""\
_device_writeback(
    $dev, {prefix}bdf, {prefix}baf, {prefix}udf, {prefix}uaf,
    accesses={total(sites)},
    row_hits={row_hits},
    reads={total([s for s in sites if not s.write])},
    writes={total([s for s in sites if s.write])},
    background={total([s for s in sites if not s.demand])},
    bus_cycles={" + ".join(bus + [prefix + "vbus"])},
    bytes_on_bus={" + ".join(byt + [prefix + "vbyt"])},
)
"""
    return text, params


def sites_init(splicer: Splicer, params: Dict) -> Tuple[str, Dict]:
    return _SITES_MARK, params


BUILTIN_FRAGMENTS: Dict[str, Fragment] = {
    "reserve": reserve,
    "device_locals": DEVICE_LOCALS,
    "device_flush": device_flush,
    "sites_init": sites_init,
}


@dataclass
class Compiled:
    """One compiled variant: its source, namespace and splice sites."""

    name: str
    flags: Dict
    source: str
    namespace: Dict
    sites: List[Site]

    def __getitem__(self, name: str):
        return self.namespace[name]


def _join_splices(lines: List[str]) -> List[str]:
    """Join a splice's argument list continued over several lines."""
    out: List[str] = []
    for line in lines:
        last = out[-1] if out else ""
        if last.lstrip().startswith("@") and last.count("(") > last.count(")"):
            out[-1] = last + " " + line.strip()
        else:
            out.append(line)
    return out


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip())


def _fill_empty_blocks(lines: List[str]) -> List[str]:
    """Add ``pass`` to blocks a fragment left empty (``if hit:`` whose
    body a variant compiled away)."""
    out: List[str] = []
    for line, following in zip(lines, lines[1:] + [""]):
        out.append(line)
        if (line.split("#")[0].rstrip().endswith(":")
                and _indent(following) <= _indent(line)):
            out.append(" " * (_indent(line) + 4) + "pass")
    return out


def build(name: str, flags: Dict, fragments: Dict[str, Fragment],
          templates: List[str], namespace: Dict) -> Compiled:
    """Expand ``templates`` under ``flags``, compile and exec the result
    in a copy of ``namespace``. The source is registered with
    :mod:`linecache`, so tracebacks show the generated lines."""
    splicer = Splicer(flags, {**BUILTIN_FRAGMENTS, **fragments})
    lines: List[str] = []
    for template in templates:
        lines.extend(splicer.expand(template))
    counters = [site.counter for site in splicer.sites]
    init = " = ".join(counters + ["0"]) if counters else "pass"
    source = "\n".join(
        line.replace(_SITES_MARK, init) for line in _fill_empty_blocks(lines)
    ) + "\n"
    filename = f"<batch kernel {name}>"
    code = compile(source, filename, "exec")
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename
    )
    scope = dict(namespace)
    exec(code, scope)
    return Compiled(name, dict(flags), source, scope, splicer.sites)


def render_reserve(flags: Dict, site: Site) -> List[str]:
    """The lines :data:`RESERVE` expands to for ``site`` under ``flags``
    (unindented), for checking a compiled source against the fragment."""
    splicer = Splicer(flags, dict(BUILTIN_FRAGMENTS))
    text, resolved = reserve(splicer, dict(site.call))
    return splicer.expand(text, resolved)
