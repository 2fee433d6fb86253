"""Beyond detection: locating an SFR fault from its power signature.

The paper detects SFR faults by comparing total power against a threshold
band.  With per-domain power visibility (its Section-5 remark about the
power management schemes of large microchips), each fault also has a
*signature*: the vector of per-component power deviations.  This example
builds a signature dictionary over every SFR fault of the Facet design,
then plays tester: a device carrying an undisclosed fault is measured and
diagnosed by nearest-signature match.  The dictionary is the grading
campaign's activity priced per component, so each signature's total is
the fault's graded power change.

Run:  python examples/fault_diagnosis.py
"""

from repro import build_rtl, build_system, run_pipeline
from repro.core.diagnosis import build_dictionary
from repro.core.pipeline import PipelineConfig


def main() -> None:
    system = build_system(build_rtl("facet"))
    result = run_pipeline(system, PipelineConfig(n_patterns=256))
    print(f"building signature dictionary over {len(result.sfr_records)} SFR faults...")
    dictionary = build_dictionary(system, result)

    # Pick a "device under test" with a secret fault.
    secret = result.sfr_records[-1]
    print(f"\ndevice under test carries: "
          f"{secret.site.describe(system.controller.netlist)}")
    print("  effects:", "; ".join(secret.classification.effect_summary()))

    observed = dictionary.signature_of_machine(secret.system_site)
    print(f"  measured: total {observed.total_pct:+.2f}%; hottest components:")
    hot = sorted(observed.component_pct.items(), key=lambda kv: -abs(kv[1]))[:3]
    for tag, pct in hot:
        print(f"    {tag:12} {pct:+.3f}% of baseline power")

    print("\ndiagnosis (nearest signatures):")
    for rank, (site, distance) in enumerate(dictionary.diagnose(observed, top=5), 1):
        mark = "  <-- actual fault" if site == secret.system_site else ""
        name = next(
            r.site.describe(system.controller.netlist)
            for r in result.sfr_records
            if r.system_site == site
        )
        print(f"  {rank}. d={distance:7.4f}  {name}{mark}")


if __name__ == "__main__":
    main()
