"""GridConfig and Treatment validation plus dict round trips."""

import math

import pytest

from surftrack.sim.config import ConfigError, GridConfig, Treatment


def ok(**kw):
    base = dict(width=2, height=2, generations=10)
    base.update(kw)
    cfg = GridConfig(**base)
    cfg.validate()
    return cfg


def test_defaults_validate():
    cfg = ok()
    assert cfg.population == 32
    assert cfg.tournament_size == 5
    assert cfg.policy == "tilted"
    assert cfg.n_pes == 4


@pytest.mark.parametrize(
    "kw",
    [
        dict(width=0),
        dict(population=0),
        dict(generations=-1),
        dict(tournament_size=0),
        dict(loss_rate=1.0),
        dict(loss_rate=-0.1),
        dict(sample_per_pe=0),
        dict(layout="plain"),
        dict(policy="fifo"),
        dict(slot_count=48),
        dict(policy="hybrid", slot_count=4),
        dict(differentia_bits=0),
        dict(differentia_bits=16),
        dict(tournament_size=GridConfig.MAX_TOURNAMENT + 1),
        dict(layout="fitness", treatment=Treatment("purifying", deleterious_sigma=math.nan)),
        dict(layout="fitness", treatment=Treatment("adaptive", beneficial_sigma=math.inf)),
    ],
)
def test_rejections(kw):
    with pytest.raises(ConfigError):
        ok(**kw)


@pytest.mark.parametrize("key", ["deleterious_sigma", "beneficial_sigma"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_sigma_is_refused_by_name(key, value):
    with pytest.raises(ConfigError, match=key):
        Treatment("adaptive", **{key: value}).validate()


def test_tagged_layout_needs_neutral_treatment():
    with pytest.raises(ConfigError):
        ok(layout="tagged", treatment=Treatment(mode="purifying"))
    ok(layout="fitness", treatment=Treatment(mode="purifying"))


def test_counter_overflow_caught_up_front():
    # tagged genomes store the deposit count in 16 bits
    with pytest.raises(ConfigError):
        ok(generations=1 << 16)
    ok(layout="fitness", generations=1 << 16)


def test_treatment_validation():
    with pytest.raises(ConfigError):
        Treatment(mode="destructive").validate()
    with pytest.raises(ConfigError):
        Treatment(deleterious_p=1.5).validate()
    with pytest.raises(ConfigError):
        Treatment(beneficial_sigma=-1).validate()


def test_dict_round_trip():
    cfg = ok(
        layout="fitness",
        treatment=Treatment(mode="adaptive", beneficial_p=0.01),
        torus=True,
        seed=99,
    )
    clone = GridConfig.from_dict(cfg.to_dict())
    assert clone == cfg


def test_from_dict_rejects_unknown_keys():
    with pytest.raises((ConfigError, TypeError)):
        GridConfig.from_dict(dict(width=1, height=1, generations=1, speed=11))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("torus", "no", "torus must be bool, got 'no'"),
        ("track_perfect", 1, "track_perfect must be bool, got 1"),
        ("width", "3", "width must be int, got '3'"),
        ("seed", 1.5, "seed must be int, got 1.5"),
        ("population", True, "population must be int, got True"),
        ("loss_rate", "0.1", "loss_rate must be float, got '0.1'"),
        ("loss_rate", False, "loss_rate must be float, got False"),
        ("policy", 7, "policy must be str, got 7"),
        ("generations", None, "generations must be int, got None"),
    ],
)
def test_from_dict_rejects_values_of_the_wrong_type(key, value, message):
    data = dict(width=2, height=2, generations=10)
    data[key] = value
    with pytest.raises(ConfigError) as e:
        GridConfig.from_dict(data)
    assert str(e.value) == message


def test_from_dict_type_checks_treatment_values_and_takes_ints_as_floats():
    data = dict(width=2, height=2, generations=10, treatment={"deleterious_p": "x"})
    with pytest.raises(ConfigError, match=r"^treatment.deleterious_p must be float, got 'x'$"):
        GridConfig.from_dict(data)
    data["treatment"] = {"mode": "purifying", "deleterious_p": 1}
    data.update(loss_rate=0, torus=True)
    cfg = GridConfig.from_dict(data)
    assert (cfg.treatment.deleterious_p, cfg.loss_rate, cfg.torus) == (1, 0, True)


def test_genome_layout_reflects_surface_geometry():
    cfg = ok(slot_count=64, differentia_bits=8, policy="steady", generations=40)
    layout = cfg.genome_layout()
    assert layout.surface_bytes == 64
    assert layout.counter_capacity == 1 << 16
