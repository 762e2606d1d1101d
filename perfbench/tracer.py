"""Span tracing of the epidual layers from outside the program.

The tracer wraps public functions and methods of the ``epidual`` modules and
rebinds each wrapper under every name that held the original in any loaded
``epidual`` module, so calls between modules (``extremal`` calling
``reg_gamma``, ``verify`` calling ``to_radius``) are seen too.  Methods are
wrapped on their class.  Every call records a span: name, start, end and the
span that was open when it began.  Spans live in compact arrays in memory
and are written out at the end of a run; ``uninstall`` puts every original
back.

A span's self time is its duration minus the durations of its children.
Calls are nested and single-threaded, so the children of a span never
overlap and their durations sum to the time they cover.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

ROOT_SPAN = "bench.op"

# defining module -> {public name: span name}
FUNCTIONS = {
    "epidual.gammafn": {"reg_gamma": "gammafn.reg_gamma"},
    "epidual.logdomain": {
        "log_add": "logdomain.log_add",
        "log_sum": "logdomain.log_sum",
        "log_sub_signed": "logdomain.log_sub_signed",
        "log1mexp": "logdomain.log1mexp",
    },
    "epidual.profile": {
        name: f"profile.transforms.{name}"
        for name in (
            "to_radius",
            "from_radius",
            "j_transform",
            "legendre",
            "polarity",
            "scale",
            "symmetrize_line",
        )
    },
    "epidual.measures": {
        "vol_mu": "measures.vol_mu",
        "vol_nu_direct": "measures.vol_nu_direct",
        "volume_pair": "measures.volume_pair",
    },
    "epidual.extremal": {
        "big_g": "extremal.big_g",
        "roots_of_m": "extremal.roots_of_m",
        "solve_lambda": "extremal.solve_lambda",
        "t_map": "extremal.t_map",
        "ck_coefficients": "extremal.ck_coefficients",
    },
    "epidual.verify": {"run_suite": "verify.run_suite"},
}

# (defining module, class, method) -> span name
METHODS = {
    ("epidual.profile", "ConvexProfile", "evaluate"): "profile.evaluate",
    ("epidual.profile", "RadiusFunction", "evaluate"): "profile.evaluate",
    ("epidual.profile", "ConvexProfile", "__post_init__"): "profile.construct",
    ("epidual.profile", "RadiusFunction", "__post_init__"): "profile.construct",
}


class Tracer:
    """Records nested spans around the wrapped epidual functions."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        """Return fn wrapped so every call records a span called name."""
        nid = self._span_id(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack
        )

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap every target and rebind it in each loaded epidual module."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "epidual" or key.startswith("epidual."))
        ]
        for mod_name, targets in FUNCTIONS.items():
            home = sys.modules.get(mod_name)
            for attr, span in targets.items():
                original = getattr(home, attr, None)
                if original is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                wrapper = self.wrap(original, span)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
        for (mod_name, cls_name, attr), span in METHODS.items():
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{cls_name}.{attr}")
                continue
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, span))

    def uninstall(self) -> None:
        """Put every original back, newest rebinding first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (number of spans, summed self time in seconds)."""
        a = self.arrays()
        k = len(self.names)
        counts = np.bincount(a["name_id"], minlength=k)
        selfs = np.bincount(a["name_id"], weights=self_times(a), minlength=k)
        return {
            name: (int(counts[i]), float(selfs[i])) for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Save the spans and their names as one .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Duration of each span minus the summed durations of its children."""
    dur = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    covered = np.bincount(
        spans["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    return dur - covered
