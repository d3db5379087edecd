"""The reference walks over the whole corpus: the prevalence tables and the
document type table, counted record by record from the corpus, the tags and
the teams, as the stats stage counted them before the populations moved to
the tag stage and the team publications' facts to the teams stage.
"""

from fractions import Fraction

from teammine.analytics import SeriesTable
from teammine.ingest import _DOC_TYPE_ALIASES, CorpusStats


def team_prevalence(pubs, teams, tags, year_min: int,
                    year_max: int) -> tuple[SeriesTable, SeriesTable]:
    """Share of multi-author publications carried by at least one team: per
    year for the whole corpus and its top cited subsets, and per country."""
    team_pubs = {pub_id for team in teams for pub_id in team.pubs}
    by_year: dict[tuple[str, int], list[int]] = {}
    by_country: dict[str, list[int]] = {}
    for rec in pubs:
        if len(rec.authors) < 2:
            continue
        in_team = rec.pub_id in team_pubs
        top10, top1 = tags.flags(rec.pub_id)
        for name, member in (("all", True), ("top10", top10), ("top1", top1)):
            if member:
                cell = by_year.setdefault((name, rec.year), [0, 0])
                cell[0] += 1
                cell[1] += in_team
        for country in {aff.country for a in rec.authors for aff in a.affiliations
                        if aff.country is not None}:
            cell = by_country.setdefault(country, [0, 0])
            cell[0] += 1
            cell[1] += in_team
    by_year_table = SeriesTable(("population", "year"), percent=True)
    for name in ("all", "top10", "top1"):
        for year in range(year_min, year_max + 1):
            n, count = by_year.get((name, year), (0, 0))
            by_year_table.add_fraction((name, year), count, n)
    by_country_table = SeriesTable(("country",), percent=True)
    for country in sorted(by_country):
        n, count = by_country[country]
        by_country_table.add_fraction((country,), count, n)
    return by_year_table, by_country_table


def corpus_stats(pubs, tags) -> CorpusStats:
    """Document type prevalence over all / top-10% / top-1% publications."""
    counts = {doc_type: [0, 0, 0] for doc_type in _DOC_TYPE_ALIASES.values()}
    for rec in pubs:
        top10, top1 = tags.flags(rec.pub_id)
        row = counts[rec.doc_type]
        row[0] += 1
        row[1] += top10
        row[2] += top1
    totals = [sum(row[i] for row in counts.values()) for i in range(3)]

    def pct(part: int, whole: int) -> float:
        return float(Fraction(100 * part, whole)) if whole else 0.0

    rows = []
    for value, (c_all, c10, c1) in counts.items():
        rows.append((value, c_all, pct(c_all, totals[0]),
                     c10, pct(c10, totals[1]), c1, pct(c1, totals[2])))
    return CorpusStats(rows=rows, empty=totals[0] == 0)
