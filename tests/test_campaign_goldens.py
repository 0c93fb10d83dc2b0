"""Golden regression test for the Figure 6 campaign (seed 11).

Pins the rendered Figure 6 table and a digest of the per-day locality
series for a small, fast campaign configuration, so that refactors of
the campaign/parallel machinery cannot silently shift the paper's
headline reproduction.  The same goldens are asserted against a
``jobs=4`` run, proving the parallel path cannot drift either.  A
second, six-day campaign with larger audiences and longer sessions is
pinned the same way (run at ``jobs=2``).

If a change *intentionally* alters campaign results (new model physics,
recalibration), regenerate the constants below with::

    PYTHONPATH=src python -c "
    import hashlib
    from repro.experiments.fig06 import Figure6
    from repro.streaming.video import Popularity
    from repro.workload.campaign import run_campaign
    from tests.test_campaign_goldens import GOLDEN_CONFIG, _series_digest
    r = run_campaign(GOLDEN_CONFIG())
    t = Figure6(result=r).render()
    print(hashlib.sha256(t.encode()).hexdigest(), _series_digest(r))"

(``SIX_DAY_CONFIG`` likewise) and say so in the commit message.
"""

import hashlib

import pytest

from repro.experiments.fig06 import Figure6
from repro.streaming.video import Popularity
from repro.workload.campaign import CampaignConfig, run_campaign


def GOLDEN_CONFIG() -> CampaignConfig:
    """The paper's canonical seed (11) on a CI-sized campaign."""
    return CampaignConfig(seed=11, days=3, popular_population=10,
                          unpopular_population=6,
                          session_duration=120.0, warmup=60.0)


#: sha256 of the rendered Figure 6 table for GOLDEN_CONFIG.
GOLDEN_TABLE_DIGEST = \
    "08a1945b7e86ce88ecb2be310ad85a56f4baee2587232c98c318d44e65589d4b"
#: sha256 over all six locality series at 9 significant digits.
GOLDEN_SERIES_DIGEST = \
    "e0c96fc03036676443b4725f416446f5e4d894dc08c5af309537a98e9e3aa543"
#: Spot values, so a digest mismatch comes with a readable diff.
GOLDEN_POPULAR_TELE = [78.50002925045902, 74.97386921027905,
                       72.33998371369722]
GOLDEN_POPULAR_POPULATIONS = [11, 10, 12]


def SIX_DAY_CONFIG() -> CampaignConfig:
    """Seed 11 over six days: 14/8 viewers, 80 + 240 s sessions."""
    return CampaignConfig(seed=11, days=6, popular_population=14,
                          unpopular_population=8,
                          session_duration=240.0, warmup=80.0)


#: The table and series digests for SIX_DAY_CONFIG.
SIX_DAY_TABLE_DIGEST = \
    "559d1877d6a25e05905da606b94d4967d6b7367c0d4259807e22b3b5e84145b9"
SIX_DAY_SERIES_DIGEST = \
    "9dd98fb55908f0d00766eeebfcb38f2fc4dad3aff3ff36bf7fc245c11e51888b"


def _series_digest(result) -> str:
    parts = []
    for popularity in (Popularity.POPULAR, Popularity.UNPOPULAR):
        for curve in ("CNC", "TELE", "Mason"):
            parts.append(",".join(f"{value:.9e}" for value
                                  in result.series(popularity, curve)))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden_campaign():
    return run_campaign(GOLDEN_CONFIG())


class TestCampaignGoldens:
    def test_rendered_table_is_pinned(self, golden_campaign):
        text = Figure6(result=golden_campaign).render()
        assert (hashlib.sha256(text.encode()).hexdigest()
                == GOLDEN_TABLE_DIGEST), (
            "Figure 6 table drifted; if intentional, regenerate the "
            f"goldens (see module docstring).  Rendered:\n{text}")

    def test_series_digest_is_pinned(self, golden_campaign):
        assert _series_digest(golden_campaign) == GOLDEN_SERIES_DIGEST

    def test_spot_values(self, golden_campaign):
        series = golden_campaign.series(Popularity.POPULAR, "TELE")
        assert series == pytest.approx(GOLDEN_POPULAR_TELE, abs=1e-9)
        assert ([day.population for day in golden_campaign.popular]
                == GOLDEN_POPULAR_POPULATIONS)

    def test_parallel_run_reproduces_the_goldens(self):
        result = run_campaign(GOLDEN_CONFIG(), jobs=4)
        text = Figure6(result=result).render()
        assert (hashlib.sha256(text.encode()).hexdigest()
                == GOLDEN_TABLE_DIGEST)
        assert _series_digest(result) == GOLDEN_SERIES_DIGEST

    def test_six_day_campaign_is_pinned(self):
        result = run_campaign(SIX_DAY_CONFIG(), jobs=2)
        text = Figure6(result=result).render()
        assert (hashlib.sha256(text.encode()).hexdigest()
                == SIX_DAY_TABLE_DIGEST), text
        assert _series_digest(result) == SIX_DAY_SERIES_DIGEST
