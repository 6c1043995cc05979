#!/usr/bin/env python3
"""The full study: regenerate every table and figure for both networks.

Runs one Limewire and one OpenFT campaign, saves the raw measurement
stores as JSON-lines (so they can be re-analysed without re-simulating,
like the paper's month of logs), and prints T1-T6 and F1-F4.

With ``--replicate N`` the study additionally re-runs each network under
N seeds (fanned out over ``--workers`` processes, one per CPU by
default) and prints the seed-dependent range of every headline metric.

With ``--telemetry-dir DIR`` every campaign runs fully instrumented:
``tail -f DIR/<network>_journal.jsonl`` shows live progress, and the
Prometheus metrics plus span chains are dumped alongside when each
campaign finishes (replications get per-seed files plus a merged
textfile).

With ``--serve-port P`` (requires ``--telemetry-dir``) the whole study
is observable live over HTTP while it runs: an HTML dashboard at ``/``,
Prometheus ``/metrics``, journal tails and trace/hotspot endpoints.
The server is read-only -- results are identical with it on or off.

Usage::

    python examples/full_study.py [--days N] [--seed S] [--out DIR]
                                  [--replicate N] [--workers W]
                                  [--telemetry-dir DIR] [--serve-port P]
"""

import argparse
from pathlib import Path

from repro.core import CampaignConfig, run_limewire_campaign, \
    run_openft_campaign
from repro.core import reports
from repro.core.analysis import top_malware
from repro.core.experiments import run_replications
from repro.core.filtering import (ExistingLimewireFilter, SizeBasedFilter,
                                  evaluate_filters)
from repro.malware.corpus import limewire_strains
from repro.telemetry import (CampaignTelemetry, ObservatoryHub,
                             TelemetryServer)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--days", type=float, default=1.0,
                        help="virtual days to measure (paper: 35)")
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--out", type=Path, default=Path("study_output"),
                        help="directory for raw measurement stores")
    parser.add_argument("--replicate", type=int, default=0,
                        help="also run N multi-seed replications per "
                             "network (0 = skip)")
    parser.add_argument("--workers", type=int, default=None,
                        help="processes for the replication fan-out "
                             "(default: one per CPU)")
    parser.add_argument("--telemetry-dir", type=Path, default=None,
                        help="instrument the campaigns and dump "
                             "journal/metrics/spans here")
    parser.add_argument("--serve-port", type=int, default=None,
                        help="watch the study live over HTTP while it "
                             "runs (0 = ephemeral port; requires "
                             "--telemetry-dir)")
    args = parser.parse_args()
    if args.serve_port is not None and args.telemetry_dir is None:
        parser.error("--serve-port requires --telemetry-dir")

    def telemetry_for(name):
        if args.telemetry_dir is None:
            return None
        bundle = CampaignTelemetry.for_directory(args.telemetry_dir, name)
        print(f"  (journal: tail -f {bundle.journal.path})")
        return bundle

    config = CampaignConfig(seed=args.seed, duration_days=args.days)
    print(f"collecting {args.days} virtual days per network "
          f"(seed={args.seed})...")
    limewire_telemetry = telemetry_for("limewire")
    openft_telemetry = telemetry_for("openft")
    server = None
    if args.serve_port is not None:
        hub = ObservatoryHub(title="full study")
        hub.set_status(seed=args.seed, days=args.days)
        hub.add_campaign("limewire", limewire_telemetry)
        hub.add_campaign("openft", openft_telemetry)
        server = TelemetryServer(hub, port=args.serve_port).start()
        print(f"  observability endpoint: {server.url}")
    try:
        limewire = run_limewire_campaign(config,
                                         telemetry=limewire_telemetry)
        print(f"  limewire: {len(limewire.store)} responses")
        openft = run_openft_campaign(config, telemetry=openft_telemetry)
        print(f"  openft:   {len(openft.store)} responses")
    finally:
        if server is not None:
            server.stop()
    for name, bundle in (("limewire", limewire_telemetry),
                         ("openft", openft_telemetry)):
        if bundle is not None:
            written = bundle.write_outputs(args.telemetry_dir, name)
            print(f"  {name} telemetry: "
                  f"{', '.join(str(p) for p in written.values())}")

    args.out.mkdir(parents=True, exist_ok=True)
    limewire.store.save(args.out / "limewire.jsonl")
    openft.store.save(args.out / "openft.jsonl")
    print(f"raw stores saved under {args.out}/")

    stores = [limewire.store, openft.store]
    print()
    print(reports.render_t1_summary(stores, args.days), end="\n\n")
    print(reports.render_t2_prevalence(stores), end="\n\n")
    print(reports.render_t3_top_malware(limewire.store), end="\n\n")
    print(reports.render_t3_top_malware(openft.store), end="\n\n")

    rows = top_malware(openft.store)
    top_ft = rows[0].name if rows else None
    print(reports.render_t4_sources(limewire.store), end="\n\n")
    print(reports.render_t4_sources(openft.store, top_strain=top_ft),
          end="\n\n")

    filters = [
        ExistingLimewireFilter.stale_blocklist(limewire_strains()),
        SizeBasedFilter.learn(limewire.store),
    ]
    print(reports.render_t5_filters(
        evaluate_filters(filters, limewire.store)), end="\n\n")
    print(reports.render_t6_size_dictionary(limewire.store), end="\n\n")

    print(reports.render_f1_rank_cdf(limewire.store), end="\n\n")
    print(reports.render_f2_size_distribution(limewire.store), end="\n\n")
    print(reports.render_f3_timeseries(limewire.store), end="\n\n")
    print(reports.render_f4_host_cdf(openft.store, top_ft))

    if args.replicate > 0:
        seeds = tuple(range(args.seed, args.seed + args.replicate))
        print(f"\nreplicating over seeds {list(seeds)} "
              f"(parallel workers={args.workers or 'auto'})...")
        for network in ("limewire", "openft"):
            report = run_replications(
                network, seeds, config, workers=args.workers,
                telemetry_dir=args.telemetry_dir,
                serve_port=args.serve_port,
                on_serve=lambda url: print(
                    f"observability endpoint: {url}"))
            print()
            print(report.render())
            if report.telemetry_path is not None:
                print(f"merged telemetry -> {report.telemetry_path}")


if __name__ == "__main__":
    main()
