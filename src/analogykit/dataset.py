"""Analogy question records, evaluation settings, and TSV (de)serialization.

A record asks ``a : b :: c : ?`` where several example terms may stand in
for ``b`` and several answers may be correct.  ``SETTINGS`` maps each
evaluation setting to ``(n_b, n_d)``, and the setting reads the prefixes
``b_list[:n_b]`` and ``d_list[:n_d]`` of the loaded record in place
(``None`` keeps the whole list):

* ``single``: first example term, first answer only.
* ``multi``: first example term, all answers.
* ``all-info``: all example terms, all answers.

File format: one record per line, five tab-separated fields
``relation_id``, ``a``, ``b`` terms joined by ``|``, ``c``, ``d`` terms
joined by ``|``.  Blank lines and lines starting with ``#`` are skipped, so
terms hold no tab, ``|``, ``\\n`` or ``\\r`` and no relation id starts with
``#``: every record :func:`save_dataset` writes loads back unchanged.

The ``AnalogyRecord`` constructor and :func:`load_dataset` check every
record.  ``_trusted_record`` builds one without the checks, for values a
caller has already checked: :func:`.datagen.combine_pairs` decides when.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from .textio import read_tsv

SETTINGS = {"single": (1, 1), "multi": (1, None), "all-info": (None, None)}


class AnalogyFormatError(ValueError):
    """An analogy TSV file violates the record format."""


def _check_term(field: str, value: str) -> None:
    if not value:
        raise ValueError(f"{field} is empty")
    if value != value.strip():
        raise ValueError(f"{field} {value!r} has surrounding whitespace")
    for forbidden in ("\t", "\n", "\r", "|"):
        if forbidden in value:
            raise ValueError(f"{field} {value!r} contains {forbidden!r}")


def _check_relation_id(field: str, value: str) -> None:
    _check_term(field, value)
    if value.startswith("#"):
        raise ValueError(f"{field} {value!r} starts with '#', which marks a comment line")


def _check_terms(field: str, values: tuple[str, ...]) -> None:
    if not values:
        raise ValueError(f"{field} is empty")
    for value in values:
        if not value:
            raise ValueError(f"{field} holds an empty term")
        _check_term(field, value)
    if len(set(values)) != len(values):
        raise ValueError(f"{field} {values!r} contains duplicates")


@dataclass(frozen=True, slots=True)
class AnalogyRecord:
    """One analogy question: ``a : b_list :: c : d_list``.

    List order is meaningful: the first entry of each list is the canonical
    one kept by the reduced evaluation settings.  The five fields are slots,
    so a record carries no ``__dict__``.
    """

    relation_id: str
    a: str
    b_list: tuple[str, ...]
    c: str
    d_list: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "b_list", tuple(self.b_list))
        object.__setattr__(self, "d_list", tuple(self.d_list))
        _check_relation_id("relation_id", self.relation_id)
        _check_term("a", self.a)
        _check_term("c", self.c)
        _check_terms("b_list", self.b_list)
        _check_terms("d_list", self.d_list)
        if self.a == self.c:
            raise ValueError(f"a and c are the same term {self.a!r}")


def load_dataset(path: str | Path) -> list[AnalogyRecord]:
    path = Path(path)
    records: list[AnalogyRecord] = []
    with read_tsv(path, AnalogyFormatError) as rows:
        for lineno, fields in rows:
            if fields[0].startswith("#"):
                continue
            if len(fields) != 5:
                raise AnalogyFormatError(f"{path}:{lineno}: expected 5 tab-separated fields, found {len(fields)}")
            relation_id, a, b_field, c, d_field = fields
            try:
                record = AnalogyRecord(
                    relation_id=relation_id,
                    a=a,
                    b_list=tuple(b_field.split("|")),
                    c=c,
                    d_list=tuple(d_field.split("|")),
                )
            except ValueError as exc:
                raise AnalogyFormatError(f"{path}:{lineno}: {exc}") from exc
            records.append(record)
    if not records:
        raise AnalogyFormatError(f"{path}: no analogy records")
    return records


def save_dataset(records: Iterable[AnalogyRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(
                "\t".join(
                    (rec.relation_id, rec.a, "|".join(rec.b_list), rec.c, "|".join(rec.d_list))
                )
                + "\n"
            )


# Slot descriptors, looked up once, through which _trusted_record fills a record.
_SET_RELATION_ID = AnalogyRecord.relation_id.__set__
_SET_A = AnalogyRecord.a.__set__
_SET_B_LIST = AnalogyRecord.b_list.__set__
_SET_C = AnalogyRecord.c.__set__
_SET_D_LIST = AnalogyRecord.d_list.__set__


def _trusted_record(
    relation_id: str, a: str, b_list: tuple[str, ...], c: str, d_list: tuple[str, ...]
) -> AnalogyRecord:
    """An ``AnalogyRecord`` built without ``__post_init__``, from values already checked.

    Each slot is filled through its member descriptor, which the frozen
    ``__setattr__`` does not guard.
    """
    record = object.__new__(AnalogyRecord)
    _SET_RELATION_ID(record, relation_id)
    _SET_A(record, a)
    _SET_B_LIST(record, b_list)
    _SET_C(record, c)
    _SET_D_LIST(record, d_list)
    return record
