"""The shared chaos audit core, exercised through both fault domains.

The serving and cluster harnesses share one determinism rerun, one
result type and one CLI exit path.  A rerun whose report diverges must
be flagged the same way in both: ``deterministic is False``, a
recorded nondeterminism violation, ``ok`` false, and CLI exit 4.
"""

import dataclasses

import pytest

from repro.cli import main
from repro.cluster import ClusterChaosConfig
from repro.faults import ChaosConfig, audit

#: domain -> (a small config, the CLI command auditing the same config)
DOMAINS = {
    "serving": (
        ChaosConfig(num_requests=10), ["chaos", "--requests", "10"],
    ),
    "cluster": (
        ClusterChaosConfig(num_jobs=10), ["cluster-chaos", "--jobs", "10"],
    ),
}


def _diverge(monkeypatch, config_type):
    """Make every second run of ``config_type`` report a longer makespan,
    so the summary of a campaign's rerun differs from its first run."""
    real_run = config_type.run
    calls = []

    def run(self, probe=None):
        subject, report, plan = real_run(self, probe)
        calls.append(self.seed)
        if len(calls) % 2 == 0:
            report = dataclasses.replace(
                report, duration_seconds=report.duration_seconds + 1.0
            )
        return subject, report, plan

    monkeypatch.setattr(config_type, "run", run)


@pytest.mark.parametrize("domain", sorted(DOMAINS))
class TestDeterminismCheck:
    def test_diverging_rerun_is_flagged(self, domain, monkeypatch):
        config, _ = DOMAINS[domain]
        _diverge(monkeypatch, type(config))
        result = audit(config, check_determinism=True)
        assert result.deterministic is False
        assert any("nondeterminism" in v for v in result.violations)
        assert not result.ok
        assert result.summary()["invariants_ok"] is False
        assert "RERUN DIVERGED" in result.render()

    def test_cli_exits_4_on_divergence(self, domain, monkeypatch, capsys):
        config, argv = DOMAINS[domain]
        _diverge(monkeypatch, type(config))
        assert main(argv + ["--seeds", "0"]) == 4
        captured = capsys.readouterr()
        assert "RERUN DIVERGED" in captured.out
        assert captured.err == (
            f"{argv[0]}: invariant violation or nondeterminism on "
            f"seed(s) 0\n"
        )
