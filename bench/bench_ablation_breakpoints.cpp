// Ablation: breakpoint count vs approximation quality and energy. The paper
// picks 16 breakpoints ("sufficient for the commonly used non-linear
// functions", Table I note: CIFAR uses 8). This sweep quantifies that
// choice: fit error and end-to-end softmax error fall with breakpoints
// while the NoC clock multiplier (and broadcast energy) rise.
#include <cstdio>

#include "accel/accelerator.hpp"
#include "approx/mlp_fitter.hpp"
#include "approx/softmax.hpp"
#include "common/table.hpp"

int main() {
  using namespace nova;

  std::puts("Ablation: breakpoints vs accuracy and energy (exp/GeLU MLP "
            "fits; TPU-v4 BERT-mini energy)\n");

  const auto tpu4 = accel::make_accelerator(hw::AcceleratorKind::kTpuV4);
  const auto wl = workload::model_workload(workload::bert_mini(1024));

  Table out("Breakpoint ablation");
  out.set_header({"breakpoints", "exp max|err|", "gelu max|err|",
                  "softmax worst |err| (n=64)", "NoC mult",
                  "NOVA energy (mJ, BERT-mini)"});
  auto& library = approx::PwlLibrary::instance();
  for (const int bp : {4, 8, 16, 32}) {
    const auto& exp_fit = library.get(approx::NonLinearFn::kExp, bp);
    const auto& gelu_fit = library.get(approx::NonLinearFn::kGelu, bp);
    const double sm_err =
        approx::softmax_worst_error(64, bp, /*trials=*/30);
    const int mult = (bp + 7) / 8;
    const auto nova = accel::evaluate_inference(
        tpu4, wl, accel::ApproximatorChoice{hw::UnitKind::kNovaNoc, bp});
    out.add_row({std::to_string(bp), Table::num(exp_fit.max_abs_error(), 5),
                 Table::num(gelu_fit.max_abs_error(), 5),
                 Table::num(sm_err, 5), std::to_string(mult),
                 Table::num(nova.approx_energy_mj, 4)});
  }
  out.print();

  std::puts("\nReading: 16 breakpoints sit at the knee -- softmax error "
            "already at the fixed-point noise floor, one NoC clock "
            "doubling. 32 breakpoints would demand a 4x NoC clock for "
            "error the Q6.10 datapath cannot express.");
  return 0;
}
