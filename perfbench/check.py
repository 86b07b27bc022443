"""Independent reference for every op's output, in mpmath at 40 digits.

The references are the closed forms of the physics, written out here
from the formulas and evaluated at the exact double the program printed
or received, so they share no code with platevac:

* scalar densities: -(pi/16L^2)(1/3 -+ csc^2) (zeta) and the cutoff
  closed form of sum n e^(-eps n) cos(2 n theta); correction
  -(alpha pi^2/(8 m^2 L^4))(1/18 + csc^4);
* EM densities: -(pi^2/(32 L^4))(1/45 -+ F), F = 3 csc^4 - 2 csc^2, and
  the correction -(alpha^2 pi^4/(17280 m^4 L^8))(11/225 + 9 F^2);
* delta-windows: the antiderivative cot(a)/(8L) - (pi - 2a)/(48L),
  a = pi delta/L (and its interacting counterpart);
* totals and force: -pi/24L, -pi^2/720L^3, pi^2/240L^4 plus the
  coupling terms; reports and verify: verdict.agrees and all_passed.

A value fails its op when its error exceeds GATE_RTOL of its scale.
Values within the gate but off by more than TARGET_RTOL (the accuracy
the package aims for) are counted as ``points_off``, not as failures.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import defaultdict

import mpmath as mp

mp.mp.dps = 40

GATE_RTOL = 1e-7
TARGET_RTOL = 1e-12
FIT_ATOL = 1e-3
TOLERANCES = {
    "gate_rtol": GATE_RTOL,
    "target_rtol": TARGET_RTOL,
    "fit_exponent_atol": FIT_ATOL,
    "scale": "|reference|; for a total that is electric + magnetic, |electric| + |magnetic|",
}

PI = mp.pi


def _f(x) -> mp.mpf:
    return mp.mpf(float(x))


# ---------------------------------------------------------------------------
# closed forms


def scalar_zeta(theta, length):
    c = PI / (16 * _f(length) ** 2)
    csc2 = 1 / mp.sin(_f(theta)) ** 2
    return -c * (mp.mpf(1) / 3 - csc2), -c * (mp.mpf(1) / 3 + csc2)


def scalar_cutoff(eps, theta, length):
    a = mp.exp(-_f(eps))
    th = _f(theta)
    d = (1 - a) ** 2 + 4 * a * mp.sin(th) ** 2
    ds = 2 * a * ((1 + a * a) * mp.cos(2 * th) - 2 * a) / d ** 2
    ll = _f(length) ** 2
    base = -PI / (48 * ll)
    return base - PI / (8 * ll) * ds, base + PI / (8 * ll) * ds


def scalar_correction(theta, length, alpha, mass):
    csc2 = 1 / mp.sin(_f(theta)) ** 2
    return -_f(alpha) * PI ** 2 / (8 * _f(mass) ** 2 * _f(length) ** 4) * (
        mp.mpf(1) / 18 + csc2 * csc2
    )


def _profile_f(theta):
    csc2 = 1 / mp.sin(_f(theta)) ** 2
    return (3 * csc2 - 2) * csc2


def em_density(theta, length):
    s = PI ** 2 / (32 * _f(length) ** 4)
    f = _profile_f(theta)
    return -s * (mp.mpf(1) / 45 - f), -s * (mp.mpf(1) / 45 + f)


def em_correction(theta, length, alpha, mass):
    f = _profile_f(theta)
    scale = _f(alpha) ** 2 * PI ** 4 / (17280 * _f(mass) ** 4 * _f(length) ** 8)
    return -scale * (mp.mpf(11) / 225 + 9 * f * f)


def scalar_total(length, alpha=None, mass=None):
    total = -PI / (24 * _f(length))
    if alpha is not None:
        total -= _f(alpha) * PI ** 2 / (144 * _f(mass) ** 2 * _f(length) ** 3)
    return total


def em_total(length, alpha=None, mass=None):
    total = -PI ** 2 / (720 * _f(length) ** 3)
    if alpha is not None:
        total -= 11 * _f(alpha) ** 2 * PI ** 4 / (
            2 ** 7 * 3 ** 5 * 5 ** 3 * _f(mass) ** 4 * _f(length) ** 7
        )
    return total


def em_force(length):
    return PI ** 2 / (240 * _f(length) ** 4)


def window(delta, length, alpha=None, mass=None):
    """Integral of the continued density over [delta, L - delta] and its
    leading divergent term."""
    length = _f(length)
    a = PI * _f(delta) / length
    ct = mp.cot(a)
    if alpha is None:
        return ct / (8 * length) - (PI - 2 * a) / (48 * length), ct / (8 * length)
    pref = -_f(alpha) * PI ** 2 / (8 * _f(mass) ** 2 * length ** 4)
    quartic = pref * (2 * length / PI) * (ct + ct ** 3 / 3)
    flat = (length - 2 * _f(delta)) * (-PI / (24 * length ** 2) + pref / 18)
    return flat + quartic, quartic


def cutoff_row(eps, length, alpha=None, mass=None):
    """(raw, subtracted) full-interval cutoff totals of the commute report."""
    e = _f(eps)
    a = mp.exp(-e)
    lin = PI / (2 * _f(length))
    raw = lin * a / (1 - a) ** 2
    sub = raw - lin / e ** 2
    if alpha is not None:
        qs = _f(alpha) * PI ** 2 / (_f(mass) ** 2 * _f(length) ** 3)
        d = 2 * e
        b = mp.exp(-d)
        quad = b * (1 + b) / (1 - b) ** 3
        raw += -qs / 144 - qs * quad
        sub += -qs / 144 - qs * (quad - 2 / d ** 3)
    return raw, sub


# ---------------------------------------------------------------------------
# checker


class Checker:
    """Counts checked values and keeps the largest error per op kind."""

    def __init__(self):
        self.points_checked = 0
        self.points_off = 0
        self.max_rel_err: dict[str, float] = defaultdict(float)

    def _value(self, kind, got, ref, scale=None) -> bool:
        self.points_checked += 1
        got = float(got)
        if not math.isfinite(got):
            self.max_rel_err[kind] = math.inf
            self.points_off += 1
            return False
        scale = abs(ref) if scale is None else scale
        err = float(abs(_f(got) - ref) / scale) if scale else float(abs(_f(got) - ref))
        self.max_rel_err[kind] = max(self.max_rel_err[kind], err)
        if err > TARGET_RTOL:
            self.points_off += 1
        return err <= GATE_RTOL

    def _split(self, kind, got, electric, magnetic) -> list[bool]:
        e, m, t = got
        return [
            self._value(kind, e, electric),
            self._value(kind, m, magnetic),
            self._value(kind, t, electric + magnetic, abs(electric) + abs(magnetic)),
        ]

    def check(self, op: dict, record: dict) -> list[str]:
        """Problems with one op's output; an empty list means it passed."""
        if record.get("exit") != 0:
            return [f"exit {record.get('exit')}: {record.get('err', '')[-300:]}"]
        if "parse_error" in record:
            return [f"unparseable output: {record['parse_error']}"]
        kind = op["kind"]
        try:
            ok = getattr(self, "_" + kind.replace(".", "_"))(op["params"], record)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]
        return [] if ok else [f"value outside gate_rtol {GATE_RTOL:g}"]

    # one method per op kind; each returns True when every value passed

    def _density(self, p, record):
        header = record["header"]
        results = [len(record["sample"]) > 0, record["rows"] == p["grid"]]
        for _, row in record["sample"]:
            cols = dict(zip(header, row))
            theta = cols["theta"]
            if p["model"] == "em":
                e, m = em_density(theta, p["length"])
            elif p["scheme"] == "cutoff":
                e, m = scalar_cutoff(p["epsilon"], theta, p["length"])
            else:
                e, m = scalar_zeta(theta, p["length"])
            results += self._split("density", (cols["electric"], cols["magnetic"], cols["total"]), e, m)
            results.append(self._value("density", cols["z"], _f(p["length"]) * _f(theta) / PI))
            if p["alpha"] is not None:
                corr = (em_correction if p["model"] == "em" else scalar_correction)(
                    theta, p["length"], p["alpha"], p["mass"]
                )
                results.append(self._value("density", cols["correction"], corr))
        return all(results)

    def _lib_profile(self, p, record):
        results = [record["rows"] == p["grid"]]
        for _, (theta, e_got, m_got, t_got) in record["sample"]:
            if p["model"] == "em":
                e, m = em_density(theta, p["length"])
            else:
                e, m = scalar_zeta(theta, p["length"])
            results += self._split("profile", (e_got, m_got, t_got), e, m)
        power = -4.0 if p["model"] == "em" else -2.0
        for exponent, r_squared in record["fits"]:
            results.append(abs(exponent - power) <= FIT_ATOL and r_squared >= 0.99)
        return all(results)

    def _lib_points(self, p, record):
        results = [len(record["values"]) == len(p["points"])]
        for (theta, eps), (single, e_got, m_got, t_got) in zip(p["points"], record["values"]):
            if eps is None:
                e, m = scalar_zeta(theta, p["length"])
            else:
                e, m = scalar_cutoff(eps, theta, p["length"])
            results.append(self._value("point", single, e))
            results += self._split("point", (e_got, m_got, t_got), e, m)
        return all(results)

    def _lib_z_point(self, p, record):
        theta = PI * _f(p["z"]) / _f(p["length"])
        c = PI / (16 * _f(p["length"]) ** 2)
        ref = -c * (mp.mpf(1) / 3 - 1 / mp.sin(theta) ** 2)
        return self._value("z_point", record["values"][0], ref)

    @staticmethod
    def _csv(text):
        rows = list(csv.reader(io.StringIO(text)))
        return rows[0], [[float(x) for x in r] for r in rows[1:]]

    def _total(self, p, record):
        text = record["text"]
        if text.lstrip().startswith("{"):
            values = json.loads(text)
        else:
            values = next(csv.DictReader(io.StringIO(text)))
        if p["model"] == "em":
            ok = self._value("total", values["total_energy"], em_total(p["length"], p["alpha"], p["mass"]))
            return self._value("total", values["force_per_area"], em_force(p["length"])) and ok
        return self._value("total", values["total_energy"], scalar_total(p["length"], p["alpha"], p["mass"]))

    def _commute(self, p, record):
        report = json.loads(record["text"])
        alpha, mass, length = p["alpha"], p["mass"], p["length"]
        results = [
            report["verdict"]["agrees"] is True,
            self._value("commute", report["sum_then_regularize"], scalar_total(length, alpha, mass)),
            len(report["integrate_then_regularize"]) == len(p["deltas"]),
            len(report["cutoff_full_interval"]) == len(p["epsilons"]),
        ]
        for row in report["integrate_then_regularize"]:
            value, estimate = window(row["delta"], length, alpha, mass)
            results.append(self._value("window", row["partial_total"], value))
            results.append(self._value("window", row["divergent_estimate"], estimate))
        for row in report["cutoff_full_interval"]:
            raw, sub = cutoff_row(row["epsilon"], length, alpha, mass)
            results.append(self._value("commute", row["raw_total"], raw))
            results.append(self._value("commute", row["subtracted"], sub))
        return all(results)

    def _scan_delta(self, p, record):
        header, rows = self._csv(record["text"])
        results = [header == ["delta", "window_integral", "divergent_estimate"],
                   [r[0] for r in rows] == p["values"]]
        for delta, value_got, estimate_got in rows:
            value, estimate = window(delta, p["length"])
            results.append(self._value("window", value_got, value))
            results.append(self._value("window", estimate_got, estimate))
        return all(results)

    def _scan_epsilon(self, p, record):
        header, rows = self._csv(record["text"])
        results = [header == ["epsilon", "electric", "magnetic", "total"],
                   [r[0] for r in rows] == p["values"]]
        for eps, *got in rows:
            e, m = scalar_cutoff(eps, p["theta"], p["length"])
            results += self._split("scan", got, e, m)
        return all(results)

    def _scan_length(self, p, record):
        header, rows = self._csv(record["text"])
        results = [header == ["length", "total_energy", "force_per_area"],
                   [r[0] for r in rows] == p["values"]]
        for length, total, force in rows:
            results.append(self._value("total", total, em_total(length, p["alpha"], p["mass"])))
            results.append(self._value("total", force, em_force(length)))
        return all(results)

    def _verify(self, p, record):
        report = json.loads(record["text"])
        self.points_checked += len(report["checks"])
        return report["all_passed"] is True and all(c["passed"] for c in report["checks"])
