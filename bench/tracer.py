"""In-memory tracing of fsosec from outside the package.

Every layer of fsosec calls its neighbours through module attributes
(``fsosec.secrecy.quad_positive_axis``, ``fsosec.mc.sample_ht``, ...).
The tracer replaces those attributes with wrappers that record spans
and counters, and puts the originals back afterwards; nothing under
``src/`` changes.  Spans stay in memory until the benchmark writes
them out at exit.

A span is (id, parent id, request id, name, label, start, end).  The
request id is the outermost span open at the time, so all spans of one
top-level call share it.  Every workload runs on one thread (the
sweeps at ``--jobs 1``), so one stack serves all spans.
"""

import functools
import inspect
import itertools
import sys
import time
from collections import Counter


class Tracer:
    """Spans and counters recorded by wrappers around module attributes."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._stack = []
        self._spans = []
        self._counts = Counter()
        self._in_adaptive = False
        self._patches = []

    # -- installing and removing wrappers ---------------------------------

    def patch(self, owner, name, make):
        """Replace owner.name by make(original); restore() undoes it."""
        original = getattr(owner, name, None)
        if original is None:
            print(f"trace: {owner.__name__}.{name} not found, not traced",
                  file=sys.stderr)
            return
        setattr(owner, name, make(original))
        self._patches.append((owner, name, original))

    def restore(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- wrappers ---------------------------------------------------------

    def spanned(self, name, label=None):
        """Wrapper factory recording one span per call.

        label(result, args) names the outcome, e.g. the metric and
        route a secrecy function actually evaluated.
        """

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack = self._stack
                sid = next(self._ids)
                parent = stack[-1] if stack else None
                request = stack[0] if stack else sid
                stack.append(sid)
                tag = "error"
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                    tag = label(result, args) if label else None
                    return result
                finally:
                    t1 = time.perf_counter()
                    stack.pop()
                    self._spans.append((sid, parent, request, name, tag,
                                        t0, t1))
            return wrapper
        return make

    def counted(self, key):
        """Wrapper factory counting calls under key."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self._counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def timed(self, key, size=None):
        """Wrapper factory counting calls, their nanoseconds and, when
        size(args) is given, the items they handled."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts = self._counts
                t0 = time.perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    counts[key + ".ns"] += time.perf_counter_ns() - t0
                    counts[key + ".calls"] += 1
                    if size is not None:
                        counts[key + ".items"] += size(args)
            return wrapper
        return make

    def counting_integrand(self, key, also_adaptive=False):
        """Wrapper factory for an integrator f(integrand, ...): counts
        integrand evaluations, and separately those made inside the
        adaptive stage."""

        def make(integrate):
            @functools.wraps(integrate)
            def wrapper(f, *args, **kwargs):
                counts = self._counts

                def counted_f(x):
                    counts[key] += 1
                    if also_adaptive and self._in_adaptive:
                        counts[key + ".adaptive"] += 1
                    return f(x)
                return integrate(counted_f, *args, **kwargs)
            return wrapper
        return make

    def adaptive_stage(self, fn):
        """Wrapper marking the adaptive stage of quad_positive_axis."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self._in_adaptive
            self._in_adaptive = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_adaptive = outer
        return wrapper

    def panel_counter(self, fn):
        """Wrapper counting Kronrod panels of quad_positive_axis."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_adaptive:
                self._counts["quadrature.panels"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- reading ----------------------------------------------------------

    def spans(self):
        return sorted(self._spans, key=lambda s: s[5])

    def counts(self):
        return Counter(self._counts)


def _metric_label(result, args):
    metric = getattr(result, "metric", None)
    method = getattr(result, "method", None)
    return f"{metric}.{method}" if metric and method else None


def _order_label(result, args):
    spec = args[0]
    return f"{spec.m}-{spec.n}-{spec.p}-{spec.q}"


def _functions_from(namespace, module_name):
    """Public names in namespace bound to functions of module_name."""
    return sorted(name for name, obj in vars(namespace).items()
                  if inspect.isfunction(obj) and obj.__module__ == module_name
                  and not name.startswith("_"))


def install(tracer):
    """Wrap the layer boundaries of fsosec; tracer.restore() undoes it."""
    import fsosec.cli as cli
    import fsosec.config as config
    import fsosec.fading as fading
    import fsosec.mc as mc
    import fsosec.quadrature as quadrature
    import fsosec.secrecy as secrecy
    import fsosec.specfun as specfun
    import fsosec.turbulence as turbulence

    t = tracer
    # cli: the run, the per-point fan-out and each point's worker
    t.patch(cli, "main", t.spanned("cli.main"))
    t.patch(cli, "_map_points", t.spanned("cli.map_points"))
    t.patch(cli, "_metric_rows_for_point", t.spanned("cli.point"))
    # config, turbulence, atmosphere: scenario construction per point
    t.patch(cli, "parse_config", t.spanned("config.parse_config"))
    t.patch(cli, "build_scenario", t.spanned("config.build_scenario"))
    t.patch(config, "link_state", t.spanned("config.link_state"))
    t.patch(config, "rytov_variance", t.spanned("turbulence.rytov_variance"))
    t.patch(turbulence, "cn2_profile", t.counted("turbulence.cn2_evals"))
    for name in _functions_from(config, "fsosec.atmosphere"):
        t.patch(config, name, t.spanned("atmosphere." + name))
    # secrecy: every metric x route, whether called by the cli or directly
    for owner in (cli, secrecy):
        for name in _functions_from(owner, "fsosec.secrecy"):
            t.patch(owner, name, t.spanned("secrecy." + name, _metric_label))
    # mc: the estimators the cli calls, and the sampler under them
    for name in _functions_from(cli, "fsosec.mc"):
        t.patch(cli, name, t.spanned("mc." + name))
    t.patch(mc, "sample_ht", t.timed("fading.sample_ht",
                                     size=lambda args: args[2]))
    # quadrature: integrals on the positive axis, their scan and panels
    t.patch(secrecy, "quad_positive_axis", t.spanned("quadrature.integral"))
    t.patch(secrecy, "quad_positive_axis",
            t.counting_integrand("quadrature.evals", also_adaptive=True))
    t.patch(quadrature, "quad_adaptive", t.adaptive_stage)
    t.patch(quadrature, "kronrod_panel", t.panel_counter)
    # specfun: G-function contour integrals and the incomplete beta
    t.patch(secrecy, "meijer_g", t.spanned("specfun.meijer_g", _order_label))
    t.patch(specfun, "quad_adaptive",
            t.counting_integrand("specfun.contour_evals"))
    t.patch(fading, "reg_inc_beta", t.timed("specfun.reg_inc_beta"))
    # fading: density and distribution calls made by the integrands
    for name in ("snr_pdf", "pdf_ht"):
        t.patch(secrecy, name, t.counted("fading.pdf_calls"))
    for name in ("snr_cdf", "cdf_ht"):
        t.patch(secrecy, name, t.counted("fading.cdf_calls"))


def self_time(spans, name):
    """Total duration of the named spans minus the part their direct
    children cover."""
    own = {s[0]: s[6] - s[5] for s in spans if s[3] == name}
    for s in spans:
        if s[1] in own:
            own[s[1]] -= s[6] - s[5]
    return sum(own.values()), len(own)


def outermost(spans, prefix, labelled=False):
    """Spans whose name starts with prefix and that have no ancestor
    of the same kind; with labelled, only spans carrying a label
    count, on both sides."""
    by_id = {s[0]: s for s in spans}

    def kind(s):
        return s[3].startswith(prefix) and (not labelled or s[4] is not None)

    out = []
    for s in spans:
        if not kind(s):
            continue
        parent = by_id.get(s[1])
        while parent is not None and not kind(parent):
            parent = by_id.get(parent[1])
        if parent is None:
            out.append(s)
    return out


_SECRECY_ROUTES = ("asc.quadrature", "asc.closed_form", "sop.quadrature",
                   "sop_lb.quadrature", "sop_lb.closed_form",
                   "spsc.quadrature", "spsc.closed_form")
_G_ORDERS = ("4-3-4-4", "2-3-3-3")


def _ratio(num, den):
    # a layer the workload never reaches reads 0 (see README.md)
    return num / den if den else 0.0


def layer_metrics(tracer, points, pairs_reported):
    """Per-layer metrics of the traced iterations.

    points is the number of sweep points or scenarios they evaluated
    and pairs_reported the Monte Carlo sample pairs the output reports.
    """
    spans = tracer.spans()
    c = tracer.counts()

    def total(name, label=None):
        sel = [s for s in spans if s[3] == name
               and (label is None or s[4] == label)]
        return sum(s[6] - s[5] for s in sel), len(sel)

    m = {}
    quad_s, integrals = total("quadrature.integral")
    evals = c["quadrature.evals"]
    adaptive = c["quadrature.evals.adaptive"]
    m["quadrature.integrand_evals_per_integral"] = _ratio(evals, integrals)
    m["quadrature.scan_evals_per_integral"] = _ratio(evals - adaptive, integrals)
    m["quadrature.useful_eval_share"] = _ratio(adaptive, evals)
    m["quadrature.panels_per_integral"] = _ratio(c["quadrature.panels"],
                                                 integrals)
    m["quadrature.ms_per_integral"] = _ratio(1e3 * quad_s, integrals)

    routes = outermost(spans, "secrecy.", labelled=True)
    for route in _SECRECY_ROUTES:
        sec = sum(s[6] - s[5] for s in routes if s[4] == route)
        m[f"secrecy.{route}.ms_per_point"] = _ratio(1e3 * sec, points)

    g_calls = 0
    for order in _G_ORDERS:
        sec, n = total("specfun.meijer_g", order)
        g_calls += n
        m[f"specfun.meijer_g.ms_per_call.{order}"] = _ratio(1e3 * sec, n)
    m["specfun.meijer_g.contour_evals_per_call"] = _ratio(
        c["specfun.contour_evals"], g_calls)
    beta_calls = c["specfun.reg_inc_beta.calls"]
    m["specfun.reg_inc_beta.calls_per_point"] = _ratio(beta_calls, points)
    m["specfun.reg_inc_beta.us_per_call"] = _ratio(
        1e-3 * c["specfun.reg_inc_beta.ns"], beta_calls)

    m["fading.pdf_calls_per_point"] = _ratio(c["fading.pdf_calls"], points)
    m["fading.cdf_calls_per_point"] = _ratio(c["fading.cdf_calls"], points)
    draws = c["fading.sample_ht.items"]
    m["fading.sample_ht.ns_per_draw"] = _ratio(c["fading.sample_ht.ns"], draws)

    mc_s = sum(s[6] - s[5] for s in outermost(spans, "mc."))
    pairs = draws / 2.0
    m["mc.ms_per_point"] = _ratio(1e3 * mc_s, points)
    m["mc.ns_per_pair_drawn"] = _ratio(1e9 * mc_s, pairs)
    m["mc.batches_per_point"] = _ratio(c["fading.sample_ht.calls"] / 2.0,
                                       points)
    m["mc.pairs_drawn_per_pair_reported"] = _ratio(pairs, pairs_reported)

    cli_self, mains = self_time(spans, "cli.main")
    m["cli.format_write_ms"] = _ratio(1e3 * cli_self, mains)

    link_s, _ = total("config.link_state")
    m["config.link_state.ms_per_point"] = _ratio(1e3 * link_s, points)
    rytov_s, rytov_n = total("turbulence.rytov_variance")
    m["turbulence.rytov_variance.ms_per_point"] = _ratio(1e3 * rytov_s, points)
    m["turbulence.rytov_variance.integrand_evals"] = _ratio(
        c["turbulence.cn2_evals"], rytov_n)
    atm_s = sum(s[6] - s[5] for s in outermost(spans, "atmosphere."))
    m["atmosphere.ms_per_point"] = _ratio(1e3 * atm_s, points)
    return m
