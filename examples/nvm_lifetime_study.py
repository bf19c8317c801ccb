"""NVM endurance and technology-portability study.

The paper's introduction argues that finite NVM write endurance makes
in-place training on NVM untenable, and Sec. 3 claims the hybrid
architecture ports to other NVM technologies (RRAM).  This example runs
both analyses at paper scale:

1. device-level: wear a simulated RRAM cell out and watch it fail,
2. design-level: lifetime (in downstream-task adaptations) of every
   training configuration, and the hybrid's EDP with RRAM as its NVM.

Run: ``python examples/nvm_lifetime_study.py``
"""

from repro.core import paper_workload
from repro.energy import MTJ, RRAMCell, RRAMParams, compare_nvm_write_cost
from repro.harness.endurance import build_endurance, render_endurance

# ------------------------------------------------------- 1. device level
print("=== device level ===")
mtj = MTJ()
print(f"STT-MRAM MTJ: R_P={mtj.params.resistance_p_ohm:.0f} ohm, "
      f"R_AP={mtj.params.resistance_ap_ohm:.0f} ohm, "
      f"TMR={mtj.tmr:.1%}, retention {mtj.retention_years():.1e} years")

cell = RRAMCell(RRAMParams(endurance_cycles=1000))
writes = 0
while cell.write(writes % 2) and writes < 10_000:
    writes += 1
print(f"RRAM cell (endurance budget 1000): failed after {writes} toggling "
      f"writes, on/off ratio {cell.on_off_ratio:.0f}x")

rram_e, mram_e = compare_nvm_write_cost()
print(f"write energy: RRAM {rram_e:.2f} pJ/bit vs MRAM {mram_e:.3f} pJ/bit "
      f"({rram_e / mram_e:.0f}x)")

# ------------------------------------------------------- 2. design level
print("\n=== design level (paper-scale workload) ===")
result = build_endurance(paper_workload())
print(render_endurance(result))

print("""
Takeaway: in-place fine-tuning burns an RRAM-class weight memory out after
a few thousand task adaptations; the hybrid design's NVM is written once at
deployment, so its learning lifetime is bounded only by SRAM — while its
training EDP stays two orders of magnitude below in-place NVM training even
when the NVM is RRAM.""")
