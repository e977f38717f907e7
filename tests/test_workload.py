import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from tiersched import (
    EnvironmentConfig,
    Job,
    JobSet,
    WorkloadFormatError,
    WorkloadSpec,
    generate,
    load,
    save,
)

from reference_workload import reference_generate


@pytest.fixture
def spec():
    return WorkloadSpec(arrival_rate=2.0, num_jobs=50, seed=42)


class TestGenerate:
    def test_identical_seed_identical_jobs(self, env_2x3, spec, tmp_path):
        a = generate(spec, env_2x3)
        b = generate(spec, env_2x3)
        assert a == b
        save(a, tmp_path / "a.txt")
        save(b, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_different_seed_differs(self, env_2x3, spec):
        other = WorkloadSpec(arrival_rate=2.0, num_jobs=50, seed=43)
        assert generate(spec, env_2x3) != generate(other, env_2x3)

    def test_allowance_fraction_of_total_exec(self, env_2x3, spec):
        for j in generate(spec, env_2x3):
            assert j.allowance / j.total_exec == pytest.approx(0.2, abs=1e-9)
            assert j.deadline == pytest.approx(1.2 * j.total_exec, abs=1e-9)

    def test_arrivals_nondecreasing_and_tiered(self, env_2x3, spec):
        jobs = generate(spec, env_2x3)
        arrivals = [j.arrival for j in jobs]
        assert arrivals == sorted(arrivals)
        assert all(len(j.exec_times) == 2 for j in jobs)

    def test_tier_count_does_not_perturb_arrivals(self, spec):
        # Arrival draws live on their own substream.
        two = generate(spec, EnvironmentConfig(
            num_tiers=2, resources_per_tier=(1, 1)))
        three = generate(spec, EnvironmentConfig(
            num_tiers=3, resources_per_tier=(1, 1, 1)))
        assert [j.arrival for j in two] == [j.arrival for j in three]
        assert [j.exec_times[0] for j in two] == [j.exec_times[0] for j in three]

    def test_execution_times_look_exponential(self):
        env = EnvironmentConfig(num_tiers=1, resources_per_tier=(1,))
        jobs = generate(WorkloadSpec(arrival_rate=1.0, num_jobs=100_000,
                                     seed=5), env)
        execs = np.array([j.exec_times[0] for j in jobs])
        assert execs.mean() == pytest.approx(1.0, abs=0.02)
        assert stats.kstest(execs, "expon").pvalue > 0.01
        inter = np.diff([j.arrival for j in jobs])
        assert stats.kstest(inter, "expon").pvalue > 0.01

    @pytest.mark.parametrize("kwargs", [
        dict(arrival_rate=0.0, num_jobs=1),
        dict(arrival_rate=1.0, num_jobs=0),
        dict(arrival_rate=1.0, num_jobs=1, service_rate=-1.0),
        dict(arrival_rate=1.0, num_jobs=1, allowance_fraction=-0.1),
        dict(arrival_rate=1.0, num_jobs=1, seed=-1),
    ])
    def test_rejects_bad_spec(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadSpec(**kwargs)

    def test_a_generated_set_holds_columns_not_jobs(self, env_2x3):
        """Six ``array('d')`` columns take about 51 B per two-tier job; a
        ``Job`` object per job took about 335 B."""
        generate(WorkloadSpec(arrival_rate=2.5, num_jobs=1), env_2x3)  # imports
        tracemalloc.start()
        try:
            jobs = generate(WorkloadSpec(arrival_rate=2.5, num_jobs=20_000,
                                         seed=1), env_2x3)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(jobs) == 20_000
        assert held / len(jobs) < 80, held

    def test_generate_and_load_build_no_job(self, env_2x3, spec, tmp_path,
                                            monkeypatch):
        save(generate(spec, env_2x3), tmp_path / "w.txt")

        def refuse(job):
            raise AssertionError(f"built job {job.id}")

        monkeypatch.setattr(Job, "__post_init__", refuse)
        assert len(generate(spec, env_2x3)) == len(load(tmp_path / "w.txt"))

    @pytest.mark.parametrize("field", ["num_jobs", "seed"])
    @pytest.mark.parametrize("value", [10.5, 1.0, "3"])
    def test_refuses_non_integer_counts(self, field, value):
        kwargs = {"arrival_rate": 1.0, "num_jobs": 1, field: value}
        with pytest.raises(TypeError, match=f"^{field} must be an integer"):
            WorkloadSpec(**kwargs)


class TestGenerateAgainstReference:
    """Column-wise generation builds every job the element-by-element
    reference builds, field by field and bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(tiers=st.sampled_from([(1,), (3, 3), (2, 3, 1)]),
           num_jobs=st.integers(1, 500),
           arrival_rate=st.sampled_from([0.3, 1.0, 2.5, 7.0, 110.0]),
           service_rate=st.sampled_from([0.5, 1.0, 3.0]),
           allowance_fraction=st.sampled_from([0.0, 0.2, 1.7]),
           seed=st.integers(0, 2**32))
    def test_fields_bit_identical(self, tiers, num_jobs, arrival_rate,
                                  service_rate, allowance_fraction, seed):
        env = EnvironmentConfig(num_tiers=len(tiers), resources_per_tier=tiers)
        spec = WorkloadSpec(arrival_rate=arrival_rate, num_jobs=num_jobs,
                            service_rate=service_rate,
                            allowance_fraction=allowance_fraction, seed=seed)

        def bits(fields):
            jid, arrival, exec_times, target = fields
            return (jid, arrival.hex(), tuple(e.hex() for e in exec_times),
                    target.hex())

        got = [bits((j.id, j.arrival, j.exec_times, j.target_completion))
               for j in generate(spec, env)]
        assert got == [bits(f) for f in reference_generate(spec, env)]

    @pytest.mark.parametrize("kwargs", [
        # job 1: the target rounds to the arrival, below the work
        dict(arrival_rate=1e-306, num_jobs=400),
        # job 1: an execution time overflows
        dict(arrival_rate=1.0, num_jobs=50, service_rate=6e-309, seed=0),
        # job 2: the target overflows
        dict(arrival_rate=1.0, num_jobs=50, service_rate=6e-309, seed=3),
    ])
    def test_refuses_the_first_job_the_reference_refuses(self, env_2x3,
                                                          kwargs):
        spec = WorkloadSpec(**kwargs)
        with np.errstate(over="ignore"):
            fields = reference_generate(spec, env_2x3)
        want = None
        for f in fields:
            try:
                Job(*f)
            except ValueError as err:
                want = err
                break
        assert want is not None
        with pytest.raises(ValueError) as got:
            generate(spec, env_2x3)
        assert (type(got.value), str(got.value)) == (type(want), str(want))


class TestFileFormat:
    def test_round_trip_identity(self, env_2x3, spec, tmp_path):
        jobs = generate(spec, env_2x3)
        path = tmp_path / "workload.txt"
        save(jobs, path)
        assert load(path) == jobs

    def test_hand_written_fixture(self, tmp_path):
        path = tmp_path / "fixture.txt"
        path.write_text(
            "# tiersched-workload 1\n"
            "# tiers 2\n"
            "# columns id arrival exec_1 exec_2 target_completion\n"
            "1 0.0 2.0 3.0 7.5\n"
            "2 1.0 1.0 1.0 4.4\n"
            "3 2.5 0.5 0.5 4.0\n")
        jobs = load(path)
        assert len(jobs) == 3
        assert jobs.job(1).deadline == pytest.approx(7.5)
        assert jobs.job(1).allowance == pytest.approx(2.5)
        assert jobs.job(2).allowance == pytest.approx(1.4)
        assert jobs.job(3).deadline == pytest.approx(1.5)
        assert jobs.job(3).allowance == pytest.approx(0.5)

    def test_negative_exec_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "# tiersched-workload 1\n"
            "# tiers 1\n"
            "# columns id arrival exec_1 target_completion\n"
            "1 0.0 1.0 1.5\n"
            "2 0.5 -2.0 1.0\n")
        with pytest.raises(WorkloadFormatError, match="line 5"):
            load(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "future.txt"
        path.write_text(
            "# tiersched-workload 2\n"
            "# tiers 1\n"
            "# columns id arrival exec_1 target_completion\n")
        with pytest.raises(WorkloadFormatError, match="version"):
            load(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text(
            "# tiersched-workload 1\n"
            "# tiers 2\n"
            "# columns id arrival exec_1 exec_2 target_completion\n"
            "1 0.0 2.0 7.5\n")
        with pytest.raises(WorkloadFormatError, match="line 4"):
            load(path)

    @pytest.mark.parametrize("tail", ["", "\n\n"])
    def test_header_without_jobs_rejected(self, tmp_path, tail):
        path = tmp_path / "empty.txt"
        path.write_text(
            "# tiersched-workload 1\n"
            "# tiers 2\n"
            "# columns id arrival exec_1 exec_2 target_completion\n" + tail)
        with pytest.raises(WorkloadFormatError,
                           match=re.escape(f"{path}: no job lines")):
            load(path)

    @pytest.mark.parametrize("header, message", [
        ("# tier 2\n# columns id arrival exec_1 exec_2 target_completion",
         "line 2: expected '# tiers N'"),
        ("# tiers two\n# columns id arrival exec_1 target_completion",
         "line 2: tier count must be an integer"),
        ("# tiers 0\n# columns id arrival target_completion",
         "line 2: tier count must be at least 1"),
        ("# tiers 3\n# columns id arrival exec_1 exec_2 target_completion",
         "line 3: column list does not match the tier count"),
    ])
    def test_malformed_header_rejected(self, tmp_path, header, message):
        path = tmp_path / "header.txt"
        path.write_text(f"# tiersched-workload 1\n{header}\n1 0.0 1.0 1.5\n")
        with pytest.raises(WorkloadFormatError, match=re.escape(message)):
            load(path)

    def test_job_set_refusal_names_the_file(self, tmp_path):
        path = tmp_path / "gap.txt"
        path.write_text(
            "# tiersched-workload 1\n"
            "# tiers 1\n"
            "# columns id arrival exec_1 target_completion\n"
            "1 0.0 1.0 1.5\n"
            "3 0.5 1.0 2.0\n")
        with pytest.raises(WorkloadFormatError, match=re.escape(
                f"{path}: job ids must be dense and arrival-ordered; "
                f"expected id 2, found 3")):
            load(path)

    @pytest.mark.parametrize("lineno, tail", [(4, b"1 0.0 1.0 1.5\xe9\n"),
                                              (5, b"1 0.0 1.0 1.5\r\n\xff")])
    def test_non_ascii_byte_rejected_with_path_and_line(self, tmp_path,
                                                         lineno, tail):
        path = tmp_path / "latin.txt"
        path.write_bytes(b"# tiersched-workload 1\n# tiers 1\n"
                         b"# columns id arrival exec_1 target_completion\n"
                         + tail)
        with pytest.raises(WorkloadFormatError, match=re.escape(
                f"{path}: line {lineno}: not ASCII text")):
            load(path)

    def test_not_a_workload_file(self, tmp_path):
        path = tmp_path / "noise.txt"
        path.write_text("hello\nworld\nmore\n")
        with pytest.raises(WorkloadFormatError, match="line 1"):
            load(path)


#: Finite floats from subnormal to near-overflow magnitudes; sums of up to
#: four execution times and an arrival stay finite.
EXTREME = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False,
                    allow_infinity=False)
POSITIVE = st.floats(min_value=5e-324, max_value=1e300)


@st.composite
def job_sets(draw):
    """Valid job sets of 1-4 tiers; some targets sit exactly at
    ``arrival + total_exec`` (no allowance at all)."""
    tiers = draw(st.integers(1, 4))
    arrivals = sorted(draw(st.lists(EXTREME, min_size=1, max_size=6)))
    jobs = []
    for jid, arrival in enumerate(arrivals, start=1):
        execs = tuple(draw(POSITIVE) for _ in range(tiers))
        slack = draw(st.one_of(st.just(0.0), POSITIVE))
        target = arrival + sum(execs) + slack
        try:
            jobs.append(Job(id=jid, arrival=arrival, exec_times=execs,
                            target_completion=target))
        except ValueError:
            # Rounding at these magnitudes can leave no room for the work.
            assume(False)
    return JobSet(tuple(jobs))


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(jobs=job_sets())
    def test_load_of_save_is_identity(self, jobs, tmp_path_factory):
        folder = tmp_path_factory.mktemp("round-trip")
        save(jobs, folder / "a.txt")
        loaded = load(folder / "a.txt")
        assert loaded == jobs
        # Saving again writes the same bytes: every float, the sign of a
        # zero included, came back bit for bit.
        save(loaded, folder / "b.txt")
        assert (folder / "b.txt").read_bytes() == \
            (folder / "a.txt").read_bytes()
