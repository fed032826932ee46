#include "campaign/strategy.hh"

#include <algorithm>
#include <map>

#include "support/log.hh"
#include "support/rng.hh"
#include "workloads/workloads.hh"

namespace txrace::campaign {

namespace {

uint64_t
stateOr(const std::map<std::string, uint64_t> &in, const char *key,
        uint64_t fallback)
{
    auto it = in.find(key);
    return it == in.end() ? fallback : it->second;
}

JobSpec
baseJob(const CampaignConfig &cfg, uint64_t &nextId, uint32_t round,
        const std::string &app, uint64_t seed)
{
    JobSpec job;
    job.id = nextId++;
    job.round = round;
    job.run = baseIdentity(cfg);
    job.run.name = app;
    job.run.seed = seed;
    return job;
}

/**
 * Plain seed sweep: every app gets seedsPerApp derived seeds, one
 * round, no adaptation. The baseline every other strategy is
 * measured against.
 */
class SeedSweep final : public Strategy
{
  public:
    const char *name() const override { return "sweep"; }

    std::vector<JobSpec>
    nextRound(const CampaignConfig &cfg,
              const std::vector<JobOutcome> &history,
              uint64_t &nextId) override
    {
        std::vector<JobSpec> jobs;
        if (!history.empty() || done_)
            return jobs;
        done_ = true;
        for (const std::string &app : cfg.apps)
            for (uint64_t i = 0; i < cfg.seedsPerApp; ++i)
                jobs.push_back(baseJob(
                    cfg, nextId, 0, app,
                    deriveSeed(cfg.masterSeed, app, 0, i)));
        return jobs;
    }

    void
    saveState(std::map<std::string, uint64_t> &out) const override
    {
        out["done"] = done_ ? 1 : 0;
    }

    void
    restoreState(const std::map<std::string, uint64_t> &in) override
    {
        done_ = stateOr(in, "done", 0) != 0;
    }

  private:
    bool done_ = false;
};

/**
 * Abort-guided adaptive reseeding. Round 0 spends half the budget as
 * a uniform probe; round 1 spends the remainder where HTM conflict
 * aborts cluster — conflict aborts are the fast path *noticing*
 * cross-thread line sharing, so they are the cheapest observable
 * proxy for "schedule-sensitive races may hide here" (vips-style
 * narrow windows need many schedules; blackscholes needs none).
 * Weights come from the id-sorted round-0 outcomes only, so the
 * allocation is identical under any worker count.
 */
class AbortGuided final : public Strategy
{
  public:
    const char *name() const override { return "abort-guided"; }

    std::vector<JobSpec>
    nextRound(const CampaignConfig &cfg,
              const std::vector<JobOutcome> &history,
              uint64_t &nextId) override
    {
        std::vector<JobSpec> jobs;
        if (round_ == 0) {
            probePerApp_ = std::max<uint64_t>(1, cfg.seedsPerApp / 2);
            for (const std::string &app : cfg.apps)
                for (uint64_t i = 0; i < probePerApp_; ++i)
                    jobs.push_back(baseJob(
                        cfg, nextId, 0, app,
                        deriveSeed(cfg.masterSeed, app, 0, i)));
            round_ = 1;
            return jobs;
        }
        if (round_ != 1)
            return jobs;
        round_ = 2;

        uint64_t total_budget = cfg.apps.size() * cfg.seedsPerApp;
        uint64_t spent = cfg.apps.size() * probePerApp_;
        uint64_t budget = total_budget > spent ? total_budget - spent
                                               : 0;
        if (budget == 0)
            return jobs;

        // Conflict-abort mass per app from the probe round (+1
        // smoothing so every app keeps a nonzero share and the
        // weights never degenerate).
        std::map<std::string, uint64_t> weight;
        for (const std::string &app : cfg.apps)
            weight[app] = 1;
        for (const JobOutcome &o : history)
            weight[o.spec.run.name] += o.abortConflict;
        uint64_t wsum = 0;
        for (const std::string &app : cfg.apps)
            wsum += weight[app];

        // Largest-remainder apportionment, ties broken by app order:
        // deterministic and exactly exhausts the budget.
        struct Share
        {
            size_t appIdx;
            uint64_t seats;
            uint64_t remainder;
        };
        std::vector<Share> shares;
        uint64_t given = 0;
        for (size_t a = 0; a < cfg.apps.size(); ++a) {
            uint64_t num = weight[cfg.apps[a]] * budget;
            shares.push_back({a, num / wsum, num % wsum});
            given += num / wsum;
        }
        std::vector<size_t> order(shares.size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t x, size_t y) {
                             return shares[x].remainder >
                                    shares[y].remainder;
                         });
        for (size_t i = 0; given < budget && i < order.size();
             ++i, ++given)
            ++shares[order[i]].seats;

        for (const Share &s : shares) {
            const std::string &app = cfg.apps[s.appIdx];
            for (uint64_t i = 0; i < s.seats; ++i) {
                JobSpec job = baseJob(
                    cfg, nextId, 1, app,
                    deriveSeed(cfg.masterSeed, app, 1, i));
                job.variant = "reseed";
                jobs.push_back(job);
            }
        }
        return jobs;
    }

    void
    saveState(std::map<std::string, uint64_t> &out) const override
    {
        out["round"] = round_;
        out["probe_per_app"] = probePerApp_;
    }

    void
    restoreState(const std::map<std::string, uint64_t> &in) override
    {
        round_ = uint32_t(stateOr(in, "round", 0));
        probePerApp_ = stateOr(in, "probe_per_app", 0);
    }

  private:
    uint32_t round_ = 0;
    uint64_t probePerApp_ = 0;
};

/**
 * Interrupt/oversubscription perturbation sweep: the full cross
 * product of apps x variants x seeds, one round. Interrupt storms
 * shake transactional windows apart (different overlap sets);
 * oversubscription beyond the physical cores reproduces the paper's
 * 8-thread unknown-abort spike and the schedule churn that comes
 * with it. Detection-window diversity, bought with config instead
 * of seeds.
 */
class PerturbSweep final : public Strategy
{
  public:
    const char *name() const override { return "perturb"; }

    std::vector<JobSpec>
    nextRound(const CampaignConfig &cfg,
              const std::vector<JobOutcome> &history,
              uint64_t &nextId) override
    {
        std::vector<JobSpec> jobs;
        if (!history.empty() || done_)
            return jobs;
        done_ = true;

        struct Variant
        {
            const char *name;
            double interruptScale;
            bool oversub;
            bool governor;
        };
        // Oversubscription doubles the workers up to the most a
        // workload program supports.
        const Variant kVariants[] = {
            {"base", 1.0, false, false},
            {"irq-x4", 4.0, false, false},
            {"irq-x16", 16.0, false, false},
            {"oversub", 1.0, true, false},
            {"oversub-gov", 4.0, true, true},
        };
        uint32_t stream = 0;
        for (const Variant &v : kVariants) {
            ++stream;
            for (const std::string &app : cfg.apps) {
                for (uint64_t i = 0; i < cfg.seedsPerApp; ++i) {
                    JobSpec job = baseJob(
                        cfg, nextId, 0, app,
                        deriveSeed(cfg.masterSeed, app, stream, i));
                    job.variant = v.name;
                    job.run.irqScale = v.interruptScale;
                    if (v.oversub)
                        job.run.workers = std::min<uint32_t>(
                            workloads::kMaxWorkers, cfg.workers * 2);
                    job.run.governor = v.governor;
                    jobs.push_back(job);
                }
            }
        }
        return jobs;
    }

    void
    saveState(std::map<std::string, uint64_t> &out) const override
    {
        out["done"] = done_ ? 1 : 0;
    }

    void
    restoreState(const std::map<std::string, uint64_t> &in) override
    {
        done_ = stateOr(in, "done", 0) != 0;
    }

  private:
    bool done_ = false;
};

} // namespace

uint64_t
deriveSeed(uint64_t masterSeed, const std::string &app,
           uint32_t stream, uint64_t index)
{
    uint64_t state = masterSeed;
    state ^= core::fnv1a64(app);
    state ^= (uint64_t(stream) + 1) * 0x9e3779b97f4a7c15ULL;
    state += index * 0xbf58476d1ce4e5b9ULL;
    return splitmix64(state);
}

std::unique_ptr<Strategy>
makeStrategy(const std::string &name)
{
    if (name == "sweep")
        return std::make_unique<SeedSweep>();
    if (name == "abort-guided")
        return std::make_unique<AbortGuided>();
    if (name == "perturb")
        return std::make_unique<PerturbSweep>();
    fatal("unknown strategy '%s' (sweep, abort-guided, perturb)",
          name.c_str());
}

const std::vector<std::string> &
strategyNames()
{
    static const std::vector<std::string> names = {
        "sweep", "abort-guided", "perturb"};
    return names;
}

} // namespace txrace::campaign
