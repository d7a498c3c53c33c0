"""Synthetic IMDB-like dataset (the substrate for the Join Order Benchmark).

The paper evaluates on the real IMDB dump, whose essential properties are
skewed join keys and correlations that cross join edges.  This generator
produces a deterministic, scaled-down dataset with the same 21-table schema
JOB uses and the same qualitative properties:

* a small number of *popular* movies, actors, keywords and companies account
  for most fact-table rows (Zipf-distributed join keys);
* popularity is *correlated across tables* — a movie that has many keywords
  also has many cast entries, many companies and many info rows — which is
  exactly the join-crossing correlation that defeats the independence
  assumption;
* filter columns are correlated with popularity (popular keywords such as
  ``superhero`` attach to popular movies, names containing the "star"
  fragments belong to prolific actors, recent production years are more
  popular), so selective-looking predicates select disproportionately
  heavy join keys — the Nasdaq-style skew trap of Section IV-C.

Everything is driven by a single seed, so datasets are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.catalog.schema import ColumnType, TableSchema, make_schema
from repro.engine.database import Database
from repro.engine.settings import EngineSettings
from repro.workloads.distributions import ZipfSampler, WeightedSampler, skewed_year

# ---------------------------------------------------------------------------
# Vocabulary constants
# ---------------------------------------------------------------------------

POPULAR_KEYWORDS = [
    "superhero",
    "sequel",
    "based-on-comic",
    "marvel-comics",
    "character-name-in-title",
    "violence",
    "second-part",
    "tv-special",
    "fight",
    "murder",
    "revenge",
    "blockbuster",
    "love",
    "based-on-novel",
    "independent-film",
    "explosion",
    "hero",
    "friendship",
    "death",
    "magic",
]

GENRES = [
    "Action",
    "Adventure",
    "Drama",
    "Comedy",
    "Thriller",
    "Horror",
    "Romance",
    "Sci-Fi",
    "Documentary",
    "Animation",
    "Crime",
    "Fantasy",
]

LANGUAGES = ["English", "French", "German", "Spanish", "Japanese", "Italian", "Korean"]
COUNTRIES = ["USA", "UK", "Germany", "France", "Japan", "Canada", "Italy", "Spain"]
COUNTRY_CODES = ["[us]", "[gb]", "[de]", "[fr]", "[jp]", "[ca]", "[it]", "[es]"]

INFO_TYPES = [
    "budget",
    "votes",
    "rating",
    "genres",
    "languages",
    "countries",
    "release dates",
    "runtimes",
    "gross",
    "birth date",
    "birth notes",
    "height",
    "trivia",
    "quotes",
    "tagline",
    "plot",
    "votes distribution",
    "top 250 rank",
    "bottom 10 rank",
    "mpaa",
]

KIND_TYPES = ["movie", "tv series", "tv movie", "video movie", "tv mini series", "video game", "episode"]
ROLE_TYPES = [
    "actor",
    "actress",
    "producer",
    "writer",
    "cinematographer",
    "composer",
    "costume designer",
    "director",
    "editor",
    "miscellaneous crew",
    "production designer",
    "guest",
]
LINK_TYPES = [
    "follows",
    "followed by",
    "remake of",
    "remade as",
    "references",
    "referenced in",
    "spoofs",
    "spoofed in",
    "features",
    "featured in",
    "spin off from",
    "spin off",
    "version of",
    "similar to",
    "edited into",
    "edited from",
    "alternate language version of",
    "unknown link",
]
COMP_CAST_TYPES = ["cast", "crew", "complete", "complete+verified"]
COMPANY_TYPES = ["production companies", "distributors", "special effects companies", "miscellaneous companies"]

CAST_NOTES = [
    "",
    "",
    "",
    "",
    "(voice)",
    "(uncredited)",
    "(producer)",
    "(executive producer)",
    "(co-producer)",
    "(archive footage)",
]

STAR_FIRST_NAMES = ["Robert", "Tim", "Tom", "Scarlett", "Chris", "Samuel", "Natalie", "Mark"]
STAR_LAST_NAMES = ["Downey", "Cruise", "Johansson", "Jackson", "Evans", "Portman", "Ruffalo", "Hanks"]
FIRST_NAMES = [
    "John", "Mary", "James", "Anna", "Michael", "Laura", "David", "Sophie", "Daniel",
    "Emma", "Peter", "Julia", "Andrew", "Karen", "Steven", "Alice", "Brian", "Nora",
    "Xavier", "Xenia",
]
LAST_NAMES = [
    "Smith", "Brown", "Miller", "Wilson", "Moore", "Taylor", "Anderson", "Thomas",
    "Martin", "Lee", "Walker", "Hall", "Young", "King", "Wright", "Scott", "Green",
    "Baker", "Adams", "Nelson",
]

MC_NOTES = [
    "",
    "",
    "(co-production)",
    "(as Metro-Goldwyn Pictures)",
    "(presents)",
    "(in association with)",
    "(2009) (USA) (theatrical)",
    "(2013) (worldwide) (all media)",
]


# ---------------------------------------------------------------------------
# Configuration and dataset containers
# ---------------------------------------------------------------------------


@dataclass
class ImdbConfig:
    """Scale and seed of the synthetic dataset.

    ``scale`` linearly controls the row counts of all entity and fact tables;
    dimension tables have fixed size.  ``scale=1.0`` yields roughly 55k rows
    overall, which keeps full-workload experiments tractable in pure Python
    while leaving enough skew for plans to differ by orders of magnitude.
    """

    scale: float = 1.0
    seed: int = 42
    zipf_movies: float = 0.75
    zipf_people: float = 0.75
    zipf_keywords: float = 0.9
    zipf_companies: float = 0.85
    correlation: float = 0.65
    #: Hard per-movie fanout caps for the fact tables.  Real IMDB fanouts are
    #: bounded (a movie has tens, not thousands, of cast entries); the caps
    #: keep worst-case star-join intermediates tractable for the pure-Python
    #: executor while preserving a ~5-10x head-to-average skew.
    max_cast_per_movie: int = 35
    max_keywords_per_movie: int = 20
    max_companies_per_movie: int = 12
    max_info_per_movie: int = 25
    max_info_idx_per_movie: int = 10

    def rows(self, base: int) -> int:
        """Row count for a table whose base size (at scale 1) is ``base``."""
        return max(4, int(base * self.scale))


@dataclass
class ImdbVocabulary:
    """Interesting values exposed to the query generator."""

    popular_keywords: List[str] = field(default_factory=list)
    rare_keywords: List[str] = field(default_factory=list)
    genres: List[str] = field(default_factory=lambda: list(GENRES))
    languages: List[str] = field(default_factory=lambda: list(LANGUAGES))
    country_codes: List[str] = field(default_factory=lambda: list(COUNTRY_CODES))
    info_types: List[str] = field(default_factory=lambda: list(INFO_TYPES))
    kinds: List[str] = field(default_factory=lambda: list(KIND_TYPES))
    roles: List[str] = field(default_factory=lambda: list(ROLE_TYPES))
    link_types: List[str] = field(default_factory=lambda: list(LINK_TYPES))
    comp_cast_types: List[str] = field(default_factory=lambda: list(COMP_CAST_TYPES))
    company_types: List[str] = field(default_factory=lambda: list(COMPANY_TYPES))
    cast_notes: List[str] = field(default_factory=lambda: ["(producer)", "(executive producer)", "(voice)", "(uncredited)"])
    name_fragments: List[str] = field(default_factory=lambda: ["Robert", "Tim", "Downey", "X", "An"])
    min_year: int = 1930
    max_year: int = 2018


@dataclass
class ImdbDataset:
    """Generated rows (per table, in schema column order) plus the vocabulary."""

    config: ImdbConfig
    tables: Dict[str, List[tuple]] = field(default_factory=dict)
    vocabulary: ImdbVocabulary = field(default_factory=ImdbVocabulary)

    def row_count(self, table: str) -> int:
        """Number of generated rows for ``table``."""
        return len(self.tables.get(table, []))


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------


def imdb_schemas() -> List[TableSchema]:
    """The 21-table JOB schema."""
    I, T = ColumnType.INT, ColumnType.TEXT
    return [
        make_schema("kind_type", [("id", I), ("kind", T)], primary_key="id"),
        make_schema("role_type", [("id", I), ("role", T)], primary_key="id"),
        make_schema("info_type", [("id", I), ("info", T)], primary_key="id"),
        make_schema("link_type", [("id", I), ("link", T)], primary_key="id"),
        make_schema("comp_cast_type", [("id", I), ("kind", T)], primary_key="id"),
        make_schema("company_type", [("id", I), ("kind", T)], primary_key="id"),
        make_schema(
            "title",
            [("id", I), ("title", T), ("kind_id", I), ("production_year", I)],
            primary_key="id",
            foreign_keys=[("kind_id", "kind_type", "id")],
        ),
        make_schema("name", [("id", I), ("name", T), ("gender", T)], primary_key="id"),
        make_schema("char_name", [("id", I), ("name", T)], primary_key="id"),
        make_schema(
            "keyword", [("id", I), ("keyword", T)], primary_key="id"
        ),
        make_schema(
            "company_name",
            [("id", I), ("name", T), ("country_code", T)],
            primary_key="id",
        ),
        make_schema(
            "aka_name",
            [("id", I), ("person_id", I), ("name", T)],
            primary_key="id",
            foreign_keys=[("person_id", "name", "id")],
        ),
        make_schema(
            "aka_title",
            [("id", I), ("movie_id", I), ("title", T)],
            primary_key="id",
            foreign_keys=[("movie_id", "title", "id")],
        ),
        make_schema(
            "cast_info",
            [
                ("id", I),
                ("person_id", I),
                ("movie_id", I),
                ("person_role_id", I),
                ("role_id", I),
                ("note", T),
            ],
            primary_key="id",
            foreign_keys=[
                ("person_id", "name", "id"),
                ("movie_id", "title", "id"),
                ("person_role_id", "char_name", "id"),
                ("role_id", "role_type", "id"),
            ],
        ),
        make_schema(
            "movie_keyword",
            [("id", I), ("movie_id", I), ("keyword_id", I)],
            primary_key="id",
            foreign_keys=[("movie_id", "title", "id"), ("keyword_id", "keyword", "id")],
        ),
        make_schema(
            "movie_companies",
            [
                ("id", I),
                ("movie_id", I),
                ("company_id", I),
                ("company_type_id", I),
                ("note", T),
            ],
            primary_key="id",
            foreign_keys=[
                ("movie_id", "title", "id"),
                ("company_id", "company_name", "id"),
                ("company_type_id", "company_type", "id"),
            ],
        ),
        make_schema(
            "movie_info",
            [("id", I), ("movie_id", I), ("info_type_id", I), ("info", T)],
            primary_key="id",
            foreign_keys=[
                ("movie_id", "title", "id"),
                ("info_type_id", "info_type", "id"),
            ],
        ),
        make_schema(
            "movie_info_idx",
            [("id", I), ("movie_id", I), ("info_type_id", I), ("info", T)],
            primary_key="id",
            foreign_keys=[
                ("movie_id", "title", "id"),
                ("info_type_id", "info_type", "id"),
            ],
        ),
        make_schema(
            "person_info",
            [("id", I), ("person_id", I), ("info_type_id", I), ("info", T)],
            primary_key="id",
            foreign_keys=[
                ("person_id", "name", "id"),
                ("info_type_id", "info_type", "id"),
            ],
        ),
        make_schema(
            "movie_link",
            [("id", I), ("movie_id", I), ("linked_movie_id", I), ("link_type_id", I)],
            primary_key="id",
            foreign_keys=[
                ("movie_id", "title", "id"),
                ("linked_movie_id", "title", "id"),
                ("link_type_id", "link_type", "id"),
            ],
        ),
        make_schema(
            "complete_cast",
            [("id", I), ("movie_id", I), ("subject_id", I), ("status_id", I)],
            primary_key="id",
            foreign_keys=[
                ("movie_id", "title", "id"),
                ("subject_id", "comp_cast_type", "id"),
                ("status_id", "comp_cast_type", "id"),
            ],
        ),
    ]


# Base sizes at scale 1.0 (dimension tables are fixed-size).
_BASE_SIZES = {
    "title": 2500,
    "name": 3000,
    "char_name": 1500,
    "keyword": 800,
    "company_name": 400,
    "aka_name": 800,
    "aka_title": 500,
    "cast_info": 12000,
    "movie_keyword": 7000,
    "movie_companies": 5000,
    "movie_info": 8000,
    "movie_info_idx": 3500,
    "person_info": 4000,
    "movie_link": 700,
    "complete_cast": 900,
}


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def generate_imdb_dataset(config: ImdbConfig = None) -> ImdbDataset:
    """Generate the full synthetic dataset for ``config`` (deterministic)."""
    config = config or ImdbConfig()
    rng = random.Random(config.seed)
    dataset = ImdbDataset(config=config)
    tables = dataset.tables

    # -- fixed dimension tables -------------------------------------------------
    tables["kind_type"] = [(i + 1, kind) for i, kind in enumerate(KIND_TYPES)]
    tables["role_type"] = [(i + 1, role) for i, role in enumerate(ROLE_TYPES)]
    tables["info_type"] = [(i + 1, info) for i, info in enumerate(INFO_TYPES)]
    tables["link_type"] = [(i + 1, link) for i, link in enumerate(LINK_TYPES)]
    tables["comp_cast_type"] = [(i + 1, kind) for i, kind in enumerate(COMP_CAST_TYPES)]
    tables["company_type"] = [(i + 1, kind) for i, kind in enumerate(COMPANY_TYPES)]
    info_type_ids = {info: i + 1 for i, info in enumerate(INFO_TYPES)}

    num_movies = config.rows(_BASE_SIZES["title"])
    num_people = config.rows(_BASE_SIZES["name"])
    num_chars = config.rows(_BASE_SIZES["char_name"])
    num_keywords = config.rows(_BASE_SIZES["keyword"])
    num_companies = config.rows(_BASE_SIZES["company_name"])

    movie_sampler = ZipfSampler(num_movies, config.zipf_movies)
    person_sampler = ZipfSampler(num_people, config.zipf_people)
    keyword_sampler = ZipfSampler(num_keywords, config.zipf_keywords)
    company_sampler = ZipfSampler(num_companies, config.zipf_companies)

    fanout_counts: Dict[str, Dict[int, int]] = {
        "cast_info": {},
        "movie_keyword": {},
        "movie_companies": {},
        "movie_info": {},
        "movie_info_idx": {},
    }

    def sample_movie_rank(fact_table: str, cap: int) -> int:
        """Zipf-sample a movie, rejecting movies that already hit the fanout cap."""
        counts = fanout_counts[fact_table]
        for _ in range(8):
            rank = movie_sampler.sample(rng)
            if counts.get(rank, 0) < cap:
                counts[rank] = counts.get(rank, 0) + 1
                return rank
        rank = rng.randrange(num_movies)
        counts[rank] = counts.get(rank, 0) + 1
        return rank

    # -- title -------------------------------------------------------------------
    kind_weights = WeightedSampler(range(1, len(KIND_TYPES) + 1), [50, 18, 10, 8, 6, 4, 4])
    titles: List[tuple] = []
    for rank in range(num_movies):
        movie_id = rank + 1
        popularity = (1.0 - rank / num_movies) ** 4
        year = skewed_year(rng, popularity)
        titles.append((movie_id, f"Movie {movie_id:05d}", kind_weights.sample(rng), year))
    tables["title"] = titles

    # -- name ----------------------------------------------------------------------
    names: List[tuple] = []
    gender_weights = WeightedSampler(["m", "f", ""], [0.55, 0.4, 0.05])
    for rank in range(num_people):
        person_id = rank + 1
        # Prolific (low-rank) people draw from the "star" name pools, which is
        # what makes LIKE '%Downey%' style predicates select heavy join keys.
        if rank < max(8, num_people // 50):
            first = STAR_FIRST_NAMES[rank % len(STAR_FIRST_NAMES)]
            last = STAR_LAST_NAMES[(rank // len(STAR_FIRST_NAMES)) % len(STAR_LAST_NAMES)]
        else:
            first = FIRST_NAMES[rng.randrange(len(FIRST_NAMES))]
            last = LAST_NAMES[rng.randrange(len(LAST_NAMES))]
        names.append((person_id, f"{last}, {first} {person_id % 97}", gender_weights.sample(rng)))
    tables["name"] = names

    # -- char_name / keyword / company_name ------------------------------------------
    tables["char_name"] = [
        (i + 1, f"Character {i + 1:04d}") for i in range(num_chars)
    ]
    keywords: List[tuple] = []
    for rank in range(num_keywords):
        if rank < len(POPULAR_KEYWORDS):
            text = POPULAR_KEYWORDS[rank]
        else:
            text = f"keyword-{rank:04d}"
        keywords.append((rank + 1, text))
    tables["keyword"] = keywords
    dataset.vocabulary.popular_keywords = list(POPULAR_KEYWORDS[: min(len(POPULAR_KEYWORDS), num_keywords)])
    dataset.vocabulary.rare_keywords = [f"keyword-{rank:04d}" for rank in range(num_keywords - 5, num_keywords)]

    country_weights = WeightedSampler(COUNTRY_CODES, [40, 14, 10, 9, 8, 8, 6, 5])
    tables["company_name"] = [
        (i + 1, f"Company {i + 1:04d} Productions", country_weights.sample(rng))
        for i in range(num_companies)
    ]

    # -- aka_name / aka_title ----------------------------------------------------------
    tables["aka_name"] = [
        (
            i + 1,
            person_sampler.sample(rng) + 1,
            f"Alias {i + 1:04d}",
        )
        for i in range(config.rows(_BASE_SIZES["aka_name"]))
    ]
    tables["aka_title"] = [
        (
            i + 1,
            movie_sampler.sample(rng) + 1,
            f"Alternate Title {i + 1:04d}",
        )
        for i in range(config.rows(_BASE_SIZES["aka_title"]))
    ]

    # -- cast_info -----------------------------------------------------------------------
    cast_rows: List[tuple] = []
    role_weights = WeightedSampler(
        range(1, len(ROLE_TYPES) + 1), [30, 24, 8, 7, 4, 4, 3, 6, 4, 5, 3, 2]
    )
    note_weights = WeightedSampler(CAST_NOTES, [30, 20, 15, 10, 8, 6, 5, 3, 2, 1])
    for i in range(config.rows(_BASE_SIZES["cast_info"])):
        movie_rank = sample_movie_rank("cast_info", config.max_cast_per_movie)
        # Correlation: popular movies cast popular people.
        if rng.random() < config.correlation:
            person_rank = min(
                num_people - 1,
                int(abs(rng.gauss(movie_rank * num_people / num_movies, num_people * 0.05))),
            )
        else:
            person_rank = person_sampler.sample(rng)
        # Producer notes cluster on popular movies (another correlation).
        note = note_weights.sample(rng)
        if movie_rank < num_movies // 10 and rng.random() < 0.45:
            note = "(producer)" if rng.random() < 0.6 else "(executive producer)"
        cast_rows.append(
            (
                i + 1,
                person_rank + 1,
                movie_rank + 1,
                rng.randrange(num_chars) + 1,
                role_weights.sample(rng),
                note,
            )
        )
    tables["cast_info"] = cast_rows

    # -- movie_keyword -----------------------------------------------------------------------
    mk_rows: List[tuple] = []
    for i in range(config.rows(_BASE_SIZES["movie_keyword"])):
        movie_rank = sample_movie_rank("movie_keyword", config.max_keywords_per_movie)
        # Correlation: popular keywords attach to popular movies.
        if rng.random() < config.correlation:
            keyword_rank = min(
                num_keywords - 1,
                int(abs(rng.gauss(movie_rank * num_keywords / num_movies, num_keywords * 0.04))),
            )
        else:
            keyword_rank = keyword_sampler.sample(rng)
        mk_rows.append((i + 1, movie_rank + 1, keyword_rank + 1))
    tables["movie_keyword"] = mk_rows

    # -- movie_companies ------------------------------------------------------------------------
    mc_rows: List[tuple] = []
    company_type_weights = WeightedSampler(range(1, len(COMPANY_TYPES) + 1), [55, 30, 8, 7])
    mc_note_weights = WeightedSampler(MC_NOTES, [35, 20, 12, 8, 8, 7, 6, 4])
    for i in range(config.rows(_BASE_SIZES["movie_companies"])):
        movie_rank = sample_movie_rank("movie_companies", config.max_companies_per_movie)
        if rng.random() < config.correlation:
            company_rank = min(
                num_companies - 1,
                int(abs(rng.gauss(movie_rank * num_companies / num_movies, num_companies * 0.06))),
            )
        else:
            company_rank = company_sampler.sample(rng)
        mc_rows.append(
            (
                i + 1,
                movie_rank + 1,
                company_rank + 1,
                company_type_weights.sample(rng),
                mc_note_weights.sample(rng),
            )
        )
    tables["movie_companies"] = mc_rows

    # -- movie_info -------------------------------------------------------------------------------
    mi_rows: List[tuple] = []
    mi_types = ["genres", "languages", "countries", "release dates", "budget", "runtimes", "gross", "tagline"]
    mi_type_weights = WeightedSampler(mi_types, [22, 16, 14, 16, 10, 10, 6, 6])
    for i in range(config.rows(_BASE_SIZES["movie_info"])):
        movie_rank = sample_movie_rank("movie_info", config.max_info_per_movie)
        info_kind = mi_type_weights.sample(rng)
        movie_year = titles[movie_rank][3]
        popularity = (1.0 - movie_rank / num_movies) ** 4
        if info_kind == "genres":
            # Popular (action/adventure) genres go to popular movies.
            if rng.random() < config.correlation and movie_rank < num_movies // 3:
                info_value = GENRES[rng.randrange(3)]
            else:
                info_value = GENRES[rng.randrange(len(GENRES))]
        elif info_kind == "languages":
            info_value = "English" if rng.random() < 0.7 else LANGUAGES[rng.randrange(len(LANGUAGES))]
        elif info_kind == "countries":
            info_value = "USA" if rng.random() < 0.5 else COUNTRIES[rng.randrange(len(COUNTRIES))]
        elif info_kind == "release dates":
            info_value = f"USA:{movie_year}"
        elif info_kind == "budget":
            budget = int(1_000_000 + popularity * 200_000_000 * rng.uniform(0.5, 1.5))
            info_value = f"${budget}"
        elif info_kind == "runtimes":
            info_value = str(rng.randint(70, 200))
        elif info_kind == "gross":
            gross = int(500_000 + popularity * 900_000_000 * rng.uniform(0.3, 1.5))
            info_value = f"${gross}"
        else:
            info_value = f"Tagline {i}"
        mi_rows.append((i + 1, movie_rank + 1, info_type_ids[info_kind], info_value))
    tables["movie_info"] = mi_rows

    # -- movie_info_idx ------------------------------------------------------------------------------
    mi_idx_rows: List[tuple] = []
    idx_types = ["votes", "rating", "votes distribution", "top 250 rank"]
    idx_type_weights = WeightedSampler(idx_types, [40, 40, 15, 5])
    for i in range(config.rows(_BASE_SIZES["movie_info_idx"])):
        movie_rank = sample_movie_rank("movie_info_idx", config.max_info_idx_per_movie)
        info_kind = idx_type_weights.sample(rng)
        popularity = (1.0 - movie_rank / num_movies) ** 4
        if info_kind == "votes":
            info_value = str(int(10 + popularity * 2_000_000 * rng.uniform(0.2, 1.2)))
        elif info_kind == "rating":
            info_value = f"{min(9.9, 4.0 + 5.0 * popularity + rng.uniform(-0.8, 0.8)):.1f}"
        elif info_kind == "votes distribution":
            info_value = "0000001222"
        else:
            info_value = str(rng.randint(1, 250))
        mi_idx_rows.append((i + 1, movie_rank + 1, info_type_ids[info_kind], info_value))
    tables["movie_info_idx"] = mi_idx_rows

    # -- person_info -----------------------------------------------------------------------------------
    pi_rows: List[tuple] = []
    pi_types = ["birth date", "birth notes", "height", "trivia", "quotes"]
    pi_type_weights = WeightedSampler(pi_types, [30, 15, 20, 25, 10])
    for i in range(config.rows(_BASE_SIZES["person_info"])):
        person_rank = person_sampler.sample(rng)
        info_kind = pi_type_weights.sample(rng)
        if info_kind == "birth date":
            info_value = f"{rng.randint(1930, 2000)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
        elif info_kind == "height":
            info_value = f"{rng.randint(150, 200)} cm"
        elif info_kind == "birth notes":
            info_value = f"{COUNTRIES[rng.randrange(len(COUNTRIES))]}"
        else:
            info_value = f"Note {i}"
        pi_rows.append((i + 1, person_rank + 1, info_type_ids[info_kind], info_value))
    tables["person_info"] = pi_rows

    # -- movie_link ----------------------------------------------------------------------------------------
    ml_rows: List[tuple] = []
    for i in range(config.rows(_BASE_SIZES["movie_link"])):
        movie_rank = movie_sampler.sample(rng)
        linked_rank = movie_sampler.sample(rng)
        ml_rows.append(
            (
                i + 1,
                movie_rank + 1,
                linked_rank + 1,
                rng.randrange(len(LINK_TYPES)) + 1,
            )
        )
    tables["movie_link"] = ml_rows

    # -- complete_cast --------------------------------------------------------------------------------------
    cc_rows: List[tuple] = []
    for i in range(config.rows(_BASE_SIZES["complete_cast"])):
        movie_rank = movie_sampler.sample(rng)
        cc_rows.append(
            (
                i + 1,
                movie_rank + 1,
                rng.randrange(2) + 1,
                rng.randrange(2) + 3,
            )
        )
    tables["complete_cast"] = cc_rows

    return dataset


def build_imdb_database(
    config: ImdbConfig = None,
    dataset: ImdbDataset = None,
    settings: EngineSettings = None,
) -> Tuple[Database, ImdbDataset]:
    """Create a :class:`Database` loaded with the synthetic IMDB dataset.

    Either an existing ``dataset`` or a ``config`` (used to generate one) can
    be supplied.  Foreign-key indexes are built and every table is ANALYZEd,
    mirroring the paper's setup.

    Returns:
        ``(database, dataset)``.
    """
    if dataset is None:
        dataset = generate_imdb_dataset(config or ImdbConfig())
    database = Database(settings=settings)
    for schema in imdb_schemas():
        database.create_table(schema)
        database.load_rows(schema.name, dataset.tables.get(schema.name, []))
    database.finalize_load()
    return database, dataset
