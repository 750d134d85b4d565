"""Binary (npz) persistence for YETs, ELTs, portfolios and YLTs.

NumPy's compressed container keeps multi-gigabyte YETs practical on disk
and round-trips every dtype exactly.  Layouts are versioned with a format
tag so future layout changes can stay backwards-compatible.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.data.elt import ELTFinancialTerms, EventLossTable
from repro.data.layer import Layer, LayerTerms, Portfolio
from repro.data.yet import YearEventTable
from repro.data.ylt import YearLossTable

PathLike = Union[str, Path]

_YET_FORMAT = "repro-yet-v1"
_ELT_FORMAT = "repro-elt-v1"
_PORTFOLIO_FORMAT = "repro-portfolio-v1"
_YLT_FORMAT = "repro-ylt-v1"


def _check_format(data: np.lib.npyio.NpzFile, expected: str, path: Path) -> None:
    tag = str(data["format"]) if "format" in data else "<missing>"
    if tag != expected:
        raise ValueError(
            f"{path} is not a {expected} file (format tag: {tag})"
        )


# ----------------------------------------------------------------------
# YET
# ----------------------------------------------------------------------
def save_yet(yet: YearEventTable, path: PathLike) -> None:
    """Write a YET to ``path`` (npz, compressed)."""
    np.savez_compressed(
        Path(path),
        format=_YET_FORMAT,
        event_ids=yet.event_ids,
        timestamps=yet.timestamps,
        offsets=yet.offsets,
    )


def load_yet(path: PathLike) -> YearEventTable:
    """Read a YET written by :func:`save_yet`."""
    path = Path(path)
    with np.load(path) as data:
        _check_format(data, _YET_FORMAT, path)
        return YearEventTable.adopt(
            event_ids=data["event_ids"],
            timestamps=data["timestamps"],
            offsets=data["offsets"],
        )


# ----------------------------------------------------------------------
# ELT
# ----------------------------------------------------------------------
def save_elt(elt: EventLossTable, path: PathLike) -> None:
    """Write one ELT (losses + financial terms) to ``path``."""
    np.savez_compressed(
        Path(path),
        format=_ELT_FORMAT,
        elt_id=np.int64(elt.elt_id),
        event_ids=elt.event_ids,
        losses=elt.losses,
        terms=np.array(elt.terms.as_tuple(), dtype=np.float64),
    )


def load_elt(path: PathLike) -> EventLossTable:
    """Read an ELT written by :func:`save_elt`."""
    path = Path(path)
    with np.load(path) as data:
        _check_format(data, _ELT_FORMAT, path)
        retention, limit, share, fx = (float(x) for x in data["terms"])
        return EventLossTable(
            elt_id=int(data["elt_id"]),
            event_ids=data["event_ids"],
            losses=data["losses"],
            terms=ELTFinancialTerms(
                retention=retention, limit=limit, share=share, currency_rate=fx
            ),
        )


# ----------------------------------------------------------------------
# Portfolio
# ----------------------------------------------------------------------
def save_portfolio(portfolio: Portfolio, path: PathLike) -> None:
    """Write a portfolio (all ELTs + layer definitions) to one npz file."""
    arrays = {"format": _PORTFOLIO_FORMAT}
    elt_ids = sorted(portfolio.elts)
    arrays["elt_ids"] = np.asarray(elt_ids, dtype=np.int64)
    for elt_id in elt_ids:
        elt = portfolio.elts[elt_id]
        arrays[f"elt_{elt_id}_event_ids"] = elt.event_ids
        arrays[f"elt_{elt_id}_losses"] = elt.losses
        arrays[f"elt_{elt_id}_terms"] = np.array(
            elt.terms.as_tuple(), dtype=np.float64
        )
    layers_spec = [
        {
            "layer_id": layer.layer_id,
            "elt_ids": list(layer.elt_ids),
            "terms": list(layer.terms.as_tuple()),
        }
        for layer in portfolio.layers
    ]
    arrays["layers_json"] = np.str_(json.dumps(layers_spec))
    np.savez_compressed(Path(path), **arrays)


def load_portfolio(path: PathLike) -> Portfolio:
    """Read a portfolio written by :func:`save_portfolio`."""
    path = Path(path)
    with np.load(path) as data:
        _check_format(data, _PORTFOLIO_FORMAT, path)
        portfolio = Portfolio()
        for elt_id in (int(i) for i in data["elt_ids"]):
            retention, limit, share, fx = (
                float(x) for x in data[f"elt_{elt_id}_terms"]
            )
            portfolio.add_elt(
                EventLossTable(
                    elt_id=elt_id,
                    event_ids=data[f"elt_{elt_id}_event_ids"],
                    losses=data[f"elt_{elt_id}_losses"],
                    terms=ELTFinancialTerms(
                        retention=retention,
                        limit=limit,
                        share=share,
                        currency_rate=fx,
                    ),
                )
            )
        for spec in json.loads(str(data["layers_json"])):
            occ_r, occ_l, agg_r, agg_l = spec["terms"]
            portfolio.add_layer(
                Layer(
                    layer_id=int(spec["layer_id"]),
                    elt_ids=tuple(int(i) for i in spec["elt_ids"]),
                    terms=LayerTerms(
                        occ_retention=occ_r,
                        occ_limit=occ_l,
                        agg_retention=agg_r,
                        agg_limit=agg_l,
                    ),
                )
            )
        return portfolio


# ----------------------------------------------------------------------
# YLT
# ----------------------------------------------------------------------
def save_ylt(ylt: YearLossTable, path: PathLike) -> None:
    """Write a YLT to ``path``."""
    np.savez_compressed(
        Path(path),
        format=_YLT_FORMAT,
        layer_ids=np.asarray(ylt.layer_ids, dtype=np.int64),
        losses=ylt.losses,
    )


def load_ylt(path: PathLike) -> YearLossTable:
    """Read a YLT written by :func:`save_ylt`."""
    path = Path(path)
    with np.load(path) as data:
        _check_format(data, _YLT_FORMAT, path)
        return YearLossTable(
            layer_ids=tuple(int(i) for i in data["layer_ids"]),
            losses=data["losses"],
        )
