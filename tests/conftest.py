import pytest

import rdladder as rl


@pytest.fixture(scope="session")
def paper_model() -> rl.ClusterModelSet:
    return rl.builtin_model()


@pytest.fixture(scope="session")
def cfg() -> rl.DecisionConfig:
    return rl.DecisionConfig()


@pytest.fixture(scope="session")
def t360() -> rl.ResolutionTier:
    return rl.tier_from_name("360p")


@pytest.fixture(scope="session")
def t540() -> rl.ResolutionTier:
    return rl.tier_from_name("540p")


@pytest.fixture(scope="session")
def t720() -> rl.ResolutionTier:
    return rl.tier_from_name("720p")


@pytest.fixture(scope="session")
def t1080() -> rl.ResolutionTier:
    return rl.tier_from_name("1080p")


@pytest.fixture(scope="session")
def tables(paper_model, cfg) -> rl.DecisionTables:
    return rl.DecisionTables(paper_model, cfg)
