"""Edits that make a ``calib_result.json`` payload disagree with its own
search: each changes one stored copy so that it no longer follows from the
config, the traces or a row's own anchor. ``CalibResult.from_json`` must
reject every one. ``SOURCE_EDITS`` change a value the result holds instead,
which ``CalibResult(...)`` rejects as well. ``orphan-trace`` leaves a row
with its trace but without its params: loading it fails on the missing
params, and building it fails on a trace that has no params row.

The edits expect an mpq result searched for at least two rounds.
"""

from __future__ import annotations


def _searched(payload: dict) -> dict:
    return next(row for row in payload["sites"] if row["searched"])


def _chosen_index_99(payload):
    _searched(payload)["chosen_index"] = 99


def _later_of_two_tied_minima(payload):
    row = _searched(payload)
    final, first = row["trace"][-1], row["chosen_index"]
    other = len(final) - 1 if first < len(final) - 1 else 0
    final[other] = final[first]
    row["chosen_index"] = max(first, other)


def _one_empty_round(payload):
    _searched(payload)["trace"] = [[]]


def _one_round_too_few(payload):
    _searched(payload)["trace"].pop(0)


def _one_round_too_many(payload):
    trace = _searched(payload)["trace"]
    trace.insert(0, list(trace[0]))


def _one_metric_too_many(payload):
    trace = _searched(payload)["trace"]
    trace[0].append(trace[0][0])


def _nan_metric(payload):
    _searched(payload)["trace"][0][0] = float("nan")


def _orphan_trace(payload):
    row = _searched(payload)
    for name in ("bits", "scale", "zero_point", "scheme", "calibrated_max",
                 "threshold"):
        del row[name]


def _searched_false_with_a_trace(payload):
    _searched(payload)["searched"] = False


def _searched_yes(payload):
    _searched(payload)["searched"] = "yes"


def _fp_block_inputs_false(payload):
    payload["fp_block_inputs"] = False


def _row(payload, site_id):
    return next(row for row in payload["sites"] if row["site_id"] == site_id)


def _mpq_scale_99(payload):
    _row(payload, "b0.attn-apply.A")["scale"] = 99.0


def _mpq_threshold(payload):
    row = _row(payload, "b0.attn-apply.A")
    row["threshold"] = row["calibrated_max"] / 2


def _uniform_calibrated_max(payload):
    _row(payload, "embed.B")["calibrated_max"] = 5.0


def _softmax_rows_log2(payload):
    """Every post-softmax row a valid log2 row, under a config of mpq."""
    for row in payload["sites"]:
        if row["site_id"].endswith(".attn-apply.A"):
            row.update(scheme="log2", scale=row["calibrated_max"], zero_point=0)


def _site_id(site_id):
    """Rename the ``b0.mlp-1.A`` row to an id that parses to the same site
    but is not the one the result writes."""
    def edit(payload):
        _row(payload, "b0.mlp-1.A")["site_id"] = site_id
    return edit


def _w_bits_off_by_one(payload):
    bits = payload["config"]["w_bits"]
    payload["config"]["w_bits"] = bits + 1 if bits < 8 else bits - 1


RESULT_EDITS = {
    "chosen-index-99": _chosen_index_99,
    "later-tied-minimum": _later_of_two_tied_minima,
    "empty-round": _one_empty_round,
    "round-too-few": _one_round_too_few,
    "nan-metric": _nan_metric,
    "searched-false": _searched_false_with_a_trace,
    "searched-yes": _searched_yes,
    "fp-block-inputs-false": _fp_block_inputs_false,
    "mpq-scale-99": _mpq_scale_99,
    "mpq-threshold": _mpq_threshold,
    "uniform-calibrated-max": _uniform_calibrated_max,
    "softmax-rows-log2": _softmax_rows_log2,
    "w-bits-off-by-one": _w_bits_off_by_one,
    "softmax-max-99": lambda payload: payload.update(softmax_max=[99.0]),
    "softmax-max-empty": lambda payload: payload.update(softmax_max=[]),
    "site-id-plus": _site_id("b+0.mlp-1.A"),
    "site-id-leading-zero": _site_id("b00.mlp-1.A"),
    "site-id-space": _site_id("b0 .mlp-1.A"),
    "site-id-underscore": _site_id("b0_0.mlp-1.A"),
}

#: Edits of a value the result holds rather than of a stored copy: building
#: the edited result with ``CalibResult(...)`` must fail as loading it does.
SOURCE_EDITS = {
    **{name: RESULT_EDITS[name]
       for name in ("empty-round", "round-too-few", "nan-metric")},
    "round-too-many": _one_round_too_many,
    "metric-too-many": _one_metric_too_many,
    "fp-loss-nan": lambda payload: payload.update(fp_loss=float("nan")),
    "fp-loss-inf": lambda payload: payload.update(fp_loss=float("inf")),
    "softmax-max-nan": lambda payload: payload.update(
        softmax_max=[float("nan")]),
    "softmax-max-inf": lambda payload: payload.update(
        softmax_max=[float("-inf")]),
    "orphan-trace": _orphan_trace,
}
