import pytest

from gravreduce.core import Body, PhysicalContext, WavePacket

# Acceptance criteria results, printed as a summary block at session end.
_ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"acceptance criterion {number}: {status}"
    if detail:
        line += f"  ({detail})"
    _ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture
def ctx():
    return PhysicalContext.dimensionless()


@pytest.fixture
def packet():
    return WavePacket(1.0)


@pytest.fixture
def point():
    return Body.point(1.0)


@pytest.fixture
def sphere():
    return Body.sphere(1.0, 1.0)


@pytest.fixture
def sphere_force_terms():
    """The two terms of ``averages.avg_qg_force_object``, as a function of
    (packet, body, ctx): 9 G m^2 / (8 sqrt(pi) sigma0 R) and
    15 G m^2 sigma0 / (16 sqrt(pi) R^3), the average being the first minus
    the second.  Their constants are frozen from a 50-digit oracle."""
    def terms(packet, body, ctx):
        gm2 = ctx.G * body.mass ** 2
        return (0.63471328149122582 * gm2 / (packet.sigma0 * body.radius),
                0.52892773457602152 * gm2 * packet.sigma0 / body.radius ** 3)
    return terms
