// Input generation: regimes, budgets and the per-seed specs every phase
// runs. Nothing here depends on the clock — the same seed gives the same
// inputs.
#include <cstring>

#include "bench.h"
#include "common/rng.h"
#include "common/strutil.h"
#include "core/config.h"

namespace perfbench {

using namespace reese;

namespace {

/// Independent per-purpose seed streams derived from the run's --seed.
u64 derive(u64 seed, u64 salt) {
  return SplitMix64(seed * 0x9E3779B97F4A7C15ULL + salt).next();
}

/// Fault-campaign variants: the five standard rows plus the component
/// sites that exercise the checker, the window, the LSQ and the D-cache.
const char* const kSiteVariants[] = {"reese@rqueue", "reese@ruu", "reese@lsq",
                                     "reese@dcache"};

}  // namespace

const Regime* find_regime(const std::string& name) {
  static const std::vector<Regime> regimes = {
      // Figure 2's programs: the six SPECint95 stand-ins.
      {"spec95", workloads::spec_like_names()},
      // Programs the paper did not evaluate: the two SPECint95 members it
      // skipped (indirect dispatch, run-length hashing) and two SPECfp95
      // stand-ins (FP units, sqrt/divide).
      {"heldout", {"compress", "m88ksim", "swim", "tomcatv"}},
  };
  for (const Regime& regime : regimes) {
    if (regime.name == name) return &regime;
  }
  return nullptr;
}

const char* scale_name(Scale scale) {
  return scale == Scale::kFull ? "full" : "tiny";
}

Budgets budgets_for(Scale scale) {
  Budgets budgets;
  if (scale == Scale::kFull) {
    budgets.grid_instructions = 50'000;
    budgets.campaign_instructions = 5'000;
    budgets.campaign_replicas = 2;
    budgets.campaign_rate = 5e-3;
    budgets.job_instructions = 1'000;
    budgets.job_campaign_instructions = 2'000;
    budgets.setups_per_round = 4;
  } else {
    budgets.grid_instructions = 4'000;
    budgets.campaign_instructions = 1'000;
    budgets.campaign_replicas = 2;
    budgets.campaign_rate = 1e-2;
    budgets.job_instructions = 500;
    budgets.job_campaign_instructions = 500;
    budgets.setups_per_round = 1;
  }
  return budgets;
}

const char* model_key(usize model_index) {
  if (model_index == kFranklin) return "franklin";
  return sim::model_slug(sim::standard_models()[model_index]);
}

core::CoreConfig model_config(usize model_index) {
  if (model_index == kFranklin) {
    // bench/abl_franklin's column: REESE hardware, Franklin's scheme.
    core::CoreConfig config = core::with_reese(core::starting_config());
    config.reese.scheme = core::RedundancyScheme::kFranklin;
    return config;
  }
  return sim::apply_model(core::starting_config(),
                          sim::standard_models()[model_index]);
}

Inputs make_inputs(const Regime& regime, Scale scale, u64 seed) {
  Inputs inputs;
  inputs.regime = &regime;
  inputs.scale = scale;
  inputs.budgets = budgets_for(scale);
  const Budgets& budgets = inputs.budgets;

  const u64 grid_seed = derive(seed, 1);
  workloads::WorkloadOptions options;
  options.seed = grid_seed;
  for (const std::string& name : regime.programs) {
    inputs.programs.push_back(workloads::make_workload(name, options).value());
  }

  sim::ExperimentSpec& grid = inputs.grid;
  grid.title = "perfbench fig2_grid";
  grid.base = core::starting_config();
  grid.models = sim::standard_models();
  grid.workloads = regime.programs;
  grid.instructions = budgets.grid_instructions;
  grid.seed = grid_seed;
  grid.jobs = 1;

  sim::CampaignSpec& campaign = inputs.campaign;
  campaign.variants = sim::standard_campaign_variants();
  for (const char* label : kSiteVariants) {
    sim::CampaignVariant variant;
    sim::campaign_variant_by_label(label, &variant);
    campaign.variants.push_back(variant);
  }
  campaign.workloads = regime.programs;
  campaign.replicas = budgets.campaign_replicas;
  campaign.instructions = budgets.campaign_instructions;
  campaign.rate = budgets.campaign_rate;
  campaign.seed = derive(seed, 2);
  campaign.jobs = 2;

  // The service mix: six tiny experiment jobs and two tiny campaign jobs,
  // cycling over the regime's programs and the five models.
  const auto& models = sim::standard_models();
  for (usize i = 0; i < 8; ++i) {
    const std::string& program = regime.programs[i % regime.programs.size()];
    const u64 job_seed = derive(seed, 10 + i);
    const bool is_campaign = i % 4 == 3;
    if (is_campaign) {
      inputs.job_bodies.push_back(format(
          "{\"workloads\": [\"%s\"], \"variants\": [\"%s\"], "
          "\"replicas\": 1, \"instructions\": %llu, \"rate\": 0.01, "
          "\"seed\": %llu}",
          program.c_str(), i == 3 ? "reese_either" : "reese@rqueue",
          static_cast<unsigned long long>(budgets.job_campaign_instructions),
          static_cast<unsigned long long>(job_seed)));
    } else {
      inputs.job_bodies.push_back(format(
          "{\"workloads\": [\"%s\"], \"models\": [\"%s\"], "
          "\"instructions\": %llu, \"seed\": %llu}",
          program.c_str(), sim::model_slug(models[i % models.size()]),
          static_cast<unsigned long long>(budgets.job_instructions),
          static_cast<unsigned long long>(job_seed)));
    }
    inputs.job_is_campaign.push_back(is_campaign);
  }
  return inputs;
}

u64 fnv1a(std::string_view bytes, u64 hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

u64 inputs_digest(const Inputs& inputs) {
  u64 hash = fnv1a(inputs.regime->name);
  for (const workloads::Workload& workload : inputs.programs) {
    const isa::Program& program = workload.program;
    hash = fnv1a(workload.name, hash);
    hash = fnv1a({reinterpret_cast<const char*>(program.words.data()),
                  program.words.size() * sizeof(u32)},
                 hash);
    hash = fnv1a({reinterpret_cast<const char*>(program.data.data()),
                  program.data.size()},
                 hash);
  }
  hash = fnv1a(format("%llu %llu",
                      static_cast<unsigned long long>(inputs.grid.seed),
                      static_cast<unsigned long long>(inputs.campaign.seed)),
               hash);
  for (const std::string& body : inputs.job_bodies) hash = fnv1a(body, hash);
  return hash;
}

}  // namespace perfbench
