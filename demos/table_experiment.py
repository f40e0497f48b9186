"""The benchmark-table experiment end to end on synthetic data.

run_table1 subsamples the dataset once per run, builds each requested
algorithm's tree, evaluates each objective, and reports raw per-run values
plus mean / std summaries with upper-bound rows. Everything is a pure
function of the data and the config, so the emitted CSV is byte-stable
across repeats. The experiment reads and writes no files; the CLI's
`experiment table1` loads --points or draws --synth-* and writes --out.
"""

from hierclust import ExperimentConfig, GaussianMixtureSpec, run_table1

data = GaussianMixtureSpec(k=8, n=400, dim=8, separation=20.0, seed=11).build()
config = ExperimentConfig(
    subsample_size=150,
    num_runs=5,
    algorithms=("bkm", "avg", "single", "random"),
    objectives=("revenue", "ckmm"),
    base_seed=100,
)

stats, csv_text = run_table1(data, config)

print("summary (mean, std over 5 runs):")
width = max(len(r.algorithm) for r in stats)
for row in stats:
    print(f"  {row.algorithm:<{width}}  {row.objective:<8} ({row.mean:.4g}, {row.std:.4g})")

print("\nraw report head:")
for line in csv_text.splitlines()[:8]:
    print(" ", line)

again, _ = run_table1(data, config)
print("\nre-running the same config reproduces every cell:",
      all(a == b for a, b in zip(stats, again)))
