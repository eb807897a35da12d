"""Structured single-ring reports for the CLI and for downstream tooling."""
from __future__ import annotations

from ringlab.core import FiniteRing, element_sets
from ringlab.ideals import socle
from ringlab.properties import PropertyName, _spectral_lists, ring_property
from ringlab.radicals import delta, jacobson, qnil_set


def build_report(ring: FiniteRing) -> dict:
    """Full survey of one ring as a JSON-ready, insertion-ordered dict."""
    units, idempotents, nilpotents = element_sets(ring)
    computation = delta(ring)
    report: dict = {
        "name": ring.name,
        "order": ring.order,
        "zero": ring.zero,
        "one": ring.one,
        "trivial": ring.is_trivial,
        "sets": {
            "units": units.to_json(),
            "idempotents": idempotents.to_json(),
            "nilpotents": nilpotents.to_json(),
            "socle": socle(ring).to_json(),
            "jacobson": jacobson(ring).to_json(),
            "qnil": qnil_set(ring).to_json(),
        },
        "delta": computation.to_json(),
        "properties": {
            prop.value: ring_property(ring, prop)[0] for prop in PropertyName
        },
        "delta_spectral": _spectral_lists(ring, PropertyName.DELTA_QUASIPOLAR),
    }
    return report


def render_text(report: dict) -> str:
    """Human-readable rendering of :func:`build_report` output."""
    lines = [
        f"ring {report['name']} of order {report['order']}",
        f"zero {report['zero']}, one {report['one']}",
    ]
    for label, members in report["sets"].items():
        lines.append(f"{label}: {members}")
    lines.append(f"delta consensus: {report['delta']['consensus']}")
    lines.append(f"delta routes agree: {report['delta']['agree']}")
    lines.append("properties:")
    for name, value in report["properties"].items():
        marker = "yes" if value else "no"
        lines.append(f"  {name}: {marker}")
    lines.append("delta spectral idempotents by element:")
    for a, candidates in enumerate(report["delta_spectral"]):
        lines.append(f"  {a}: {candidates}")
    return "\n".join(lines) + "\n"
