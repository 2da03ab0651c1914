#include "fleet/fleet.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/threadpool.hh"
#include "core/timing_cache.hh"
#include "deploy/cohort.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/context.hh"
#include "serve/batcher.hh"
#include "serve/request.hh"
#include "serve/scheduler.hh"
#include "serve/serving.hh"
#include "watch/rollup.hh"

namespace edgert::fleet {

namespace {

/** Control-event kinds beside the dispatch loop's (whose timeout
 *  target is the (node, model) slot); the target is the model
 *  (arrival), the node (fail, rejoin) or the rollout (stage, req =
 *  stage index). */
enum EventKind { kArrival = serve::kRunnerEvent, kFail, kRejoin, kStage };

/** Mutable per-rollout progress. */
struct RolloutState
{
    int model = -1;
    bool prepared = false;
    bool halted = false;
    int cand_version = -1;
    std::vector<bool> class_ok; //!< per class (false when unused)
    std::vector<bool> switched; //!< per node
    std::unique_ptr<deploy::CohortPlanner> planner;
};

} // namespace

FleetReport
runFleet(const FleetConfig &cfg)
{
    // ------------------------------------------------------------
    // Validation and fleet resolution.
    // ------------------------------------------------------------
    if (cfg.models.empty())
        fatal("fleet config has no models");
    if (cfg.duration_s <= 0.0)
        fatal("fleet duration must be positive (got ",
              cfg.duration_s, ")");
    if (cfg.vnodes < 1)
        fatal("fleet vnodes must be >= 1 (got ", cfg.vnodes, ")");
    if (cfg.sojourn_choices < 1)
        fatal("fleet sojourn_choices must be >= 1 (got ",
              cfg.sojourn_choices, ")");
    if (cfg.remap_probes < 1)
        fatal("fleet remap_probes must be >= 1 (got ",
              cfg.remap_probes, ")");
    serve::requireUniqueModels(cfg.models);

    ResolvedFleet fleet = resolveFleet(cfg.groups);
    const int n_nodes = static_cast<int>(fleet.nodes.size());
    const int n_models = static_cast<int>(cfg.models.size());
    const int n_classes = static_cast<int>(fleet.classes.size());

    for (const FailureSpec &f : cfg.failures) {
        if (f.node < 0 || f.node >= n_nodes)
            fatal("failure names node ", f.node,
                  " outside the fleet (", n_nodes, " nodes)");
        if (f.fail_s < 0.0)
            fatal("failure time must be non-negative (got ",
                  f.fail_s, ")");
        if (f.rejoin_s >= 0.0 && f.rejoin_s <= f.fail_s)
            fatal("rejoin time must be after the failure (fail ",
                  f.fail_s, ", rejoin ", f.rejoin_s, ")");
    }

    auto modelIndex = [&](const std::string &name) {
        for (int m = 0; m < n_models; m++)
            if (cfg.models[static_cast<std::size_t>(m)].model ==
                name)
                return m;
        fatal("unknown fleet model '", name, "'");
    };
    for (const RolloutSpec &ro : cfg.rollouts) {
        modelIndex(ro.model);
        if (ro.stages.empty())
            fatal("rollout for '", ro.model, "' has no stages");
        double prev = -1.0;
        for (const RolloutStage &st : ro.stages) {
            if (st.t_s < 0.0 || st.t_s <= prev)
                fatal("rollout stages for '", ro.model,
                      "' must have ascending non-negative times");
            if (st.pct <= 0.0 || st.pct > 100.0)
                fatal("rollout stage pct must be in (0, 100] (got ",
                      st.pct, ")");
            prev = st.t_s;
        }
    }

    EDGERT_SPAN("fleet_run",
                {{"nodes", std::to_string(n_nodes)},
                 {"models", std::to_string(n_models)},
                 {"classes", std::to_string(n_classes)}});

    // ------------------------------------------------------------
    // Builds: engines + calibration once per (class, model), shared
    // read-only by every node of the class. One timing cache per
    // class so rebuilds within a class stay warm.
    // ------------------------------------------------------------
    std::vector<serve::BatchPolicy> policies;
    std::vector<std::vector<int>> ladders;
    for (int m = 0; m < n_models; m++) {
        policies.push_back(
            cfg.models[static_cast<std::size_t>(m)].batching);
        ladders.push_back(serve::engineBatchLadder(
            policies.back().max_batch));
    }

    std::vector<core::TimingCache> caches(
        static_cast<std::size_t>(n_classes));

    // Build one generation of model m: engines + calibrated service
    // predictions for every class in `class_mask` (null = all).
    auto buildVersion = [&](int m, std::uint64_t build_id,
                            bool use_cache,
                            const std::vector<bool> *class_mask) {
        const auto &mc = cfg.models[static_cast<std::size_t>(m)];
        EDGERT_SPAN("fleet_build",
                    {{"model", mc.model},
                     {"build", std::to_string(build_id)}});
        serve::EngineVersion ver;
        ver.build_id = build_id;
        for (int c = 0; c < n_classes; c++) {
            auto ci = static_cast<std::size_t>(c);
            serve::EngineSet &set = ver.sets.emplace_back();
            if (class_mask && !(*class_mask)[ci])
                continue;
            core::BuilderConfig bcfg;
            bcfg.precision = mc.precision;
            bcfg.calibration_seed = mc.calibration_seed;
            bcfg.build_id = build_id;
            bcfg.jobs = 1;
            bcfg.timing_cache = use_cache ? &caches[ci] : nullptr;
            set = serve::buildEngineSet(
                fleet.classes[ci].spec, bcfg, mc.model,
                ladders[static_cast<std::size_t>(m)]);
        }
        return ver;
    };

    // versions[m]: generation list; index 0 is the incumbent.
    std::vector<std::vector<serve::EngineVersion>> versions(
        static_cast<std::size_t>(n_models));
    for (int m = 0; m < n_models; m++)
        versions[static_cast<std::size_t>(m)].push_back(
            buildVersion(m, cfg.build_id, true, nullptr));

    // ------------------------------------------------------------
    // Placement: rank classes (capability vs calibrated — F4/F5
    // make these disagree) and fill nodes in rank order up to each
    // model's nodes_pct, bounded by per-node context RAM.
    // ------------------------------------------------------------
    // Per-model outcomes that accumulate during the run (placement,
    // sheds, batches); the report fills in the rest.
    std::vector<FleetModelStats> mstats(
        static_cast<std::size_t>(n_models));
    std::vector<std::vector<bool>> serves(
        static_cast<std::size_t>(n_models));
    for (int m = 0; m < n_models; m++) {
        std::vector<double> svc1;
        for (int c = 0; c < n_classes; c++)
            svc1.push_back(
                versions[static_cast<std::size_t>(m)][0]
                    .sets[static_cast<std::size_t>(c)]
                    .service_s.front());
        auto rank = rankClasses(
            cfg.placement, fleet.classes, svc1,
            cfg.models[static_cast<std::size_t>(m)].precision);
        for (int c : rank)
            mstats[static_cast<std::size_t>(m)].placement_rank.push_back(
                fleet.classes[static_cast<std::size_t>(c)].label());
        serves[static_cast<std::size_t>(m)] = selectNodes(
            fleet, rank,
            cfg.models[static_cast<std::size_t>(m)].nodes_pct);
    }

    // Instances, node-major then model order (a node is one device
    // of the pool); each node's context RAM budget bounds how many
    // it can actually host.
    auto classOf = [&](int node) {
        return fleet.nodes[static_cast<std::size_t>(node)].dev_class;
    };
    serve::InstancePool pool = [&] {
        std::vector<gpusim::DeviceSpec> node_specs;
        for (int node = 0; node < n_nodes; node++)
            node_specs.push_back(fleet.specOf(node));
        return serve::InstancePool(node_specs, cfg.ram_fraction);
    }();
    for (int node = 0; node < n_nodes; node++)
        for (int m = 0; m < n_models; m++)
            if (serves[static_cast<std::size_t>(m)]
                      [static_cast<std::size_t>(node)])
                pool.place(m, node,
                           versions[static_cast<std::size_t>(m)][0]
                               .sets[static_cast<std::size_t>(
                                   classOf(node))]
                               .maxFootprintBytes(),
                           cfg.models[static_cast<std::size_t>(m)]
                               .instances_per_device);
    auto nmSlot = [&](int node, int m) {
        return static_cast<std::size_t>(node) *
                   static_cast<std::size_t>(n_models) +
               static_cast<std::size_t>(m);
    };

    // ------------------------------------------------------------
    // Routing rings: one per model over the nodes actually hosting
    // an instance of it.
    // ------------------------------------------------------------
    std::vector<HashRing> rings;
    for (int m = 0; m < n_models; m++) {
        rings.emplace_back(cfg.seed, cfg.vnodes);
        std::vector<int> members;
        for (int node = 0; node < n_nodes; node++)
            if (!pool.instancesOf(m, node).empty())
                members.push_back(node);
        rings.back().reset(members);
        mstats[static_cast<std::size_t>(m)].serving_nodes =
            static_cast<int>(members.size());
        if (members.empty())
            warn("EdgeFleet: model '",
                 cfg.models[static_cast<std::size_t>(m)].model,
                 "' placed on no node; its traffic will be shed");
    }

    // ------------------------------------------------------------
    // Workload: per-model fleet-wide arrival streams from forked
    // Rng streams, merged into one id-ordered request table.
    // ------------------------------------------------------------
    std::vector<serve::Request> requests =
        serve::requestTable(cfg.models, cfg.duration_s, cfg.seed);

    // ------------------------------------------------------------
    // Phase 1 — fleet control loop. Per-(node, model) queues and
    // batch timeouts; per-node burn-rate SLO trackers fed by
    // control-plane-observable outcomes (sheds and predicted
    // deadline misses) roll up fleet-wide and drive quarantine.
    // ------------------------------------------------------------
    std::vector<serve::RequestQueue> queues(
        static_cast<std::size_t>(n_nodes) *
        static_cast<std::size_t>(n_models));
    std::vector<serve::DynamicBatcher> batchers;
    for (int m = 0; m < n_models; m++)
        batchers.emplace_back(
            policies[static_cast<std::size_t>(m)]);

    // Active build generation per (node, model); rollouts splice
    // cohorts forward while in-flight incumbent batches drain on
    // their own contexts.
    std::vector<int> active_ver(queues.size(), 0);

    std::vector<bool> failed(static_cast<std::size_t>(n_nodes),
                             false);
    std::vector<bool> quarantined(static_cast<std::size_t>(n_nodes),
                                  false);

    std::vector<watch::SloTracker> trackers;
    for (int node = 0; node < n_nodes; node++)
        trackers.emplace_back(
            fleet.nodes[static_cast<std::size_t>(node)].name,
            cfg.slo);
    watch::AlertRollup rollup;

    serve::ControlQueue evq;
    for (const auto &r : requests)
        evq.push(r.arrival_s, kArrival, r.model, r.id);
    for (const FailureSpec &fs : cfg.failures) {
        evq.push(fs.fail_s, kFail, fs.node);
        if (fs.rejoin_s >= 0.0)
            evq.push(fs.rejoin_s, kRejoin, fs.node);
    }
    std::vector<RolloutState> ro_states(cfg.rollouts.size());
    std::vector<RolloutStats> ro_stats(cfg.rollouts.size());
    for (std::size_t ro = 0; ro < cfg.rollouts.size(); ro++) {
        const RolloutSpec &spec = cfg.rollouts[ro];
        ro_states[ro].model = modelIndex(spec.model);
        ro_stats[ro].model = spec.model;
        ro_stats[ro].candidate_build_id = spec.candidate_build_id;
        for (std::size_t s = 0; s < spec.stages.size(); s++)
            evq.push(spec.stages[s].t_s, kStage, static_cast<int>(ro),
                     static_cast<std::int64_t>(s));
    }

    std::vector<FleetEvent> events;
    std::vector<std::int64_t> model_dispatched(
        static_cast<std::size_t>(n_models), 0);
    // Next plan entry whose predicted completion is unobserved.
    std::vector<std::size_t> next_obs;

    auto activeVersion = [&](int node,
                             int m) -> const serve::EngineVersion & {
        return versions[static_cast<std::size_t>(m)]
                       [static_cast<std::size_t>(
                           active_ver[nmSlot(node, m)])];
    };
    const serve::DispatchHook countDispatch =
        [&](const serve::Instance &inst,
            const serve::PlannedDispatch &pd) {
            const auto mi = static_cast<std::size_t>(inst.model);
            mstats[mi].batches++;
            model_dispatched[mi] += pd.batch;
        };
    // Failed and quarantined nodes take no new dispatches.
    auto tryDispatch = [&](int node, int m, double t) {
        if (failed[static_cast<std::size_t>(node)] ||
            quarantined[static_cast<std::size_t>(node)])
            return;
        const auto slot = nmSlot(node, m);
        serve::dispatchBatches(
            evq, pool, pool.instancesOf(m, node), queues[slot],
            batchers[static_cast<std::size_t>(m)],
            static_cast<int>(slot), activeVersion(node, m),
            active_ver[slot], classOf(node), t, countDispatch);
    };

    // Quarantine can fire mid-observation, so declare first.
    std::function<void(int, const char *, double)> quarantineNode;

    auto trackerObserve = [&](int node, double t, bool bad) {
        watch::Alert a =
            trackers[static_cast<std::size_t>(node)].observe(t,
                                                             bad);
        if (a.t_s < 0.0)
            return; // no tier transition
        const FleetNode &fn =
            fleet.nodes[static_cast<std::size_t>(node)];
        rollup.observe(
            t, node,
            fleet.groups[static_cast<std::size_t>(fn.group)].name,
            a.tier, a.burn);
        if (a.tier == watch::Alert::kPage &&
            cfg.quarantine_on_page &&
            !quarantined[static_cast<std::size_t>(node)] &&
            !failed[static_cast<std::size_t>(node)])
            quarantineNode(node, "slo_page", t);
    };

    // Route one request; `admit` is false for re-routes (a request
    // admitted once is never shed by a membership change).
    std::function<void(int, std::int64_t, double, bool)>
        routeRequest = [&](int m, std::int64_t id, double t,
                           bool admit) {
            serve::Request &r =
                requests[static_cast<std::size_t>(id)];
            HashRing &ring = rings[static_cast<std::size_t>(m)];
            if (ring.empty()) {
                r.outcome = serve::Outcome::kShed;
                mstats[static_cast<std::size_t>(m)].shed++;
                return;
            }
            const auto &policy = policies[static_cast<std::size_t>(m)];
            std::uint64_t key = ring.keyFor(id);
            int node = -1;
            if (cfg.route_policy == RoutePolicy::kHash) {
                node = ring.route(key);
            } else {
                auto cands =
                    ring.successors(key, cfg.sojourn_choices);
                double best = 0.0;
                for (int cand : cands) {
                    auto &cq = queues[nmSlot(cand, m)];
                    double est = serve::predictSojournSeconds(
                        pool, pool.instancesOf(m, cand),
                        activeVersion(cand, m), classOf(cand), policy,
                        static_cast<int>(cq.size()), t, cq.rateHz());
                    if (node < 0 || est < best ||
                        (est == best && cand < node)) {
                        node = cand;
                        best = est;
                    }
                }
            }
            if (!serve::admitArrival(
                    r, t, queues[nmSlot(node, m)],
                    admit && cfg.admission_control, pool,
                    pool.instancesOf(m, node), activeVersion(node, m),
                    classOf(node), policy)) {
                mstats[static_cast<std::size_t>(m)].shed++;
                trackerObserve(node, t, true);
                return;
            }
            tryDispatch(node, m, t);
        };

    // Remove a node from every ring, re-route its queued requests
    // (in-flight dispatches stay planned and drain in the replay —
    // nothing is dropped) and record the membership event. Returns
    // the number of re-routed requests.
    auto removeNode = [&](int node, double t, const char *kind,
                          const char *reason) {
        std::int64_t moved = 0;
        double remap_sum = 0.0;
        int remap_n = 0;
        for (int m = 0; m < n_models; m++) {
            HashRing &ring = rings[static_cast<std::size_t>(m)];
            if (!ring.contains(node))
                continue;
            HashRing before = ring;
            ring.remove(node);
            remap_sum += remapPct(before, ring, cfg.remap_probes);
            remap_n++;
            auto &q = queues[nmSlot(node, m)];
            q.timeout_armed = -1;
            if (q.empty())
                continue;
            auto ids = q.cut(static_cast<int>(q.size()));
            for (std::int64_t id : ids) {
                moved++;
                routeRequest(m, id, t, false);
            }
        }
        events.push_back(
            {t, node, fleet.nodes[static_cast<std::size_t>(node)].name,
             kind, reason, moved,
             remap_n > 0 ? remap_sum / static_cast<double>(remap_n)
                         : 0.0});
        return moved;
    };

    quarantineNode = [&](int node, const char *reason, double t) {
        quarantined[static_cast<std::size_t>(node)] = true;
        std::int64_t moved = removeNode(node, t, "quarantine", reason);
        warn("EdgeFleet: quarantined node ",
             fleet.nodes[static_cast<std::size_t>(node)].name,
             " at t=", t, "s (", reason, "), rerouted ", moved,
             " queued requests");
    };

    // Prepare a rollout at its first executed stage: build the
    // candidate per serving class (no timing-cache reuse, so the
    // rebuild drifts naturally per F2/F6), judge each class with
    // the DriftGate, and freeze the cohort draw over the nodes
    // eligible right now.
    auto prepareRollout = [&](std::size_t ro, double t) {
        const RolloutSpec &spec = cfg.rollouts[ro];
        RolloutState &st = ro_states[ro];
        const int m = st.model;
        EDGERT_SPAN("fleet_rollout",
                    {{"model", spec.model},
                     {"build",
                      std::to_string(spec.candidate_build_id)}});
        std::vector<bool> class_mask(
            static_cast<std::size_t>(n_classes), false);
        for (int node = 0; node < n_nodes; node++)
            if (!pool.instancesOf(m, node).empty())
                class_mask[static_cast<std::size_t>(classOf(node))] =
                    true;
        serve::EngineVersion cand = buildVersion(
            m, spec.candidate_build_id, false, &class_mask);
        deploy::DriftGate gate(spec.gate);
        st.class_ok.assign(static_cast<std::size_t>(n_classes),
                           false);
        for (int c = 0; c < n_classes; c++) {
            if (!class_mask[static_cast<std::size_t>(c)])
                continue;
            const auto &inc =
                versions[static_cast<std::size_t>(m)][0]
                    .sets[static_cast<std::size_t>(c)]
                    .engines.front();
            const auto &cnd =
                cand.sets[static_cast<std::size_t>(c)]
                    .engines.front();
            deploy::DriftVerdict v = gate.evaluate(inc, cnd);
            st.class_ok[static_cast<std::size_t>(c)] = v.accepted;
            ClassVerdictStats cs;
            cs.dev_class =
                fleet.classes[static_cast<std::size_t>(c)].label();
            cs.accepted = v.accepted;
            cs.reason = v.reason;
            cs.disagreement_pct = v.disagreement_pct;
            cs.kernel_remap_pct = v.kernel_remap_pct;
            ro_stats[ro].verdicts.push_back(std::move(cs));
        }
        versions[static_cast<std::size_t>(m)].push_back(
            std::move(cand));
        st.cand_version = static_cast<int>(
                              versions[static_cast<std::size_t>(m)]
                                  .size()) -
                          1;
        std::vector<int> eligible;
        for (int node = 0; node < n_nodes; node++)
            if (!pool.instancesOf(m, node).empty() &&
                !quarantined[static_cast<std::size_t>(node)] &&
                !failed[static_cast<std::size_t>(node)])
                eligible.push_back(node);
        st.planner = std::make_unique<deploy::CohortPlanner>(
            eligible,
            mix64(hashCombine(
                hashCombine(cfg.seed, hashString("rollout")),
                static_cast<std::uint64_t>(ro))));
        st.switched.assign(static_cast<std::size_t>(n_nodes),
                           false);
        st.prepared = true;
        inform("EdgeFleet: rollout of '", spec.model, "' build ",
             spec.candidate_build_id, " prepared at t=", t, "s (",
             st.planner->memberCount(), " eligible nodes)");
    };

    {
        EDGERT_SPAN("fleet_control",
                    {{"requests",
                      std::to_string(requests.size())}});
        while (!evq.empty()) {
            serve::ControlEvent e = evq.pop();
            switch (e.kind) {
              case kArrival:
                  routeRequest(e.target, e.req, e.t, true);
                  break;
              case serve::kBatchTimeout: {
                  auto slot = static_cast<std::size_t>(e.target);
                  tryDispatch(
                      static_cast<int>(slot /
                                       static_cast<std::size_t>(
                                           n_models)),
                      static_cast<int>(slot %
                                       static_cast<std::size_t>(
                                           n_models)),
                      e.t);
                  break;
              }
              case serve::kInstanceFree: {
                  auto ii = static_cast<std::size_t>(e.target);
                  if (next_obs.size() <= ii)
                      next_obs.resize(pool.instances().size(), 0);
                  const serve::Instance &inst = pool.instances()[ii];
                  // Predicted completion of the next unobserved
                  // dispatch: feed each request's predicted SLO
                  // verdict to the node's burn-rate tracker (the
                  // control plane cannot see measured latencies —
                  // those exist only after the replay).
                  std::size_t k = next_obs[ii]++;
                  std::vector<std::int64_t> ids =
                      inst.plan[k].request_ids;
                  for (std::int64_t id : ids) {
                      const serve::Request &r =
                          requests[static_cast<std::size_t>(id)];
                      bool bad =
                          (e.t - r.arrival_s) * 1e3 > r.slo_ms;
                      trackerObserve(inst.device, e.t, bad);
                  }
                  tryDispatch(inst.device, inst.model, e.t);
                  break;
              }
              case kFail: {
                  int node = e.target;
                  if (failed[static_cast<std::size_t>(node)])
                      break;
                  failed[static_cast<std::size_t>(node)] = true;
                  removeNode(node, e.t, "fail", "");
                  break;
              }
              case kRejoin: {
                  int node = e.target;
                  if (!failed[static_cast<std::size_t>(node)])
                      break;
                  failed[static_cast<std::size_t>(node)] = false;
                  double remap_sum = 0.0;
                  int remap_n = 0;
                  if (!quarantined[static_cast<std::size_t>(
                          node)]) {
                      for (int m = 0; m < n_models; m++) {
                          if (pool.instancesOf(m, node).empty())
                              continue;
                          HashRing &ring =
                              rings[static_cast<std::size_t>(m)];
                          HashRing before = ring;
                          ring.add(node);
                          remap_sum += remapPct(before, ring,
                                                cfg.remap_probes);
                          remap_n++;
                      }
                  }
                  events.push_back(
                      {e.t, node,
                       fleet.nodes[static_cast<std::size_t>(node)].name,
                       "rejoin", "", 0,
                       remap_n > 0
                           ? remap_sum / static_cast<double>(remap_n)
                           : 0.0});
                  break;
              }
              case kStage: {
                  auto ro = static_cast<std::size_t>(e.target);
                  const RolloutSpec &spec = cfg.rollouts[ro];
                  RolloutState &st = ro_states[ro];
                  const RolloutStage &stage =
                      spec.stages[static_cast<std::size_t>(e.req)];
                  RolloutStageStats ss;
                  ss.t_s = stage.t_s;
                  ss.pct = stage.pct;
                  if (st.halted) {
                      // An earlier stage quarantined nodes: the
                      // canary absorbed the bad build; leave the
                      // rest of the fleet on the incumbent.
                      ro_stats[ro].stages.push_back(ss);
                      break;
                  }
                  if (!st.prepared)
                      prepareRollout(ro, e.t);
                  ss.executed = true;
                  auto cohort = st.planner->cohort(stage.pct);
                  ss.cohort = static_cast<int>(cohort.size());
                  for (int node : cohort) {
                      if (st.switched[static_cast<std::size_t>(
                              node)] ||
                          quarantined[static_cast<std::size_t>(
                              node)] ||
                          failed[static_cast<std::size_t>(node)])
                          continue;
                      if (st.class_ok[static_cast<std::size_t>(
                              classOf(node))]) {
                          active_ver[nmSlot(node, st.model)] =
                              st.cand_version;
                          st.switched[static_cast<std::size_t>(
                              node)] = true;
                          ss.switched++;
                          tryDispatch(node, st.model, e.t);
                      } else {
                          quarantineNode(node, "drift_gate_reject",
                                         e.t);
                          ss.quarantined++;
                      }
                  }
                  if (ss.quarantined > 0) {
                      st.halted = true;
                      ro_stats[ro].halted = true;
                  }
                  ro_stats[ro].stages.push_back(ss);
                  break;
              }
            }
        }
    }

    // ------------------------------------------------------------
    // Phase 2 — execution replay, one node at a time: each task
    // builds its node's GpuSim over a private MetricRegistry,
    // replays the node's plans in windows (serve::replayPlans),
    // folds measured completions back and destroys the simulator,
    // so live op memory is one node's in-flight window per replay
    // thread. Nodes share nothing (each request sits in exactly one
    // plan), so node replays parallelize and every simulator sees
    // the same op sequence at any thread count; registries merge
    // into the global one in node id order afterwards
    // (byte-identical reports). Kernel traces stay off: a 500-node
    // replay would otherwise retain every simulated launch record.
    // ------------------------------------------------------------
    std::vector<std::unique_ptr<obs::MetricRegistry>> node_regs;
    {
        for (int node = 0; node < n_nodes; node++)
            node_regs.push_back(
                std::make_unique<obs::MetricRegistry>());

        auto runNode = [&](std::size_t ni) {
            const int node = static_cast<int>(ni);
            gpusim::GpuSim sim(fleet.specOf(node), node_regs[ni].get());
            std::vector<serve::PlanSource> sources;
            for (int m = 0; m < n_models; m++)
                for (int i : pool.instancesOf(m, node)) {
                    serve::Instance &inst =
                        pool.instances()[static_cast<std::size_t>(i)];
                    if (inst.stream > 0)
                        sim.createStream();
                    sources.push_back(
                        {&inst, &versions[static_cast<std::size_t>(m)],
                         classOf(node), inst.stream,
                         [](runtime::ExecutionContext &ctx) {
                             return ctx.enqueueInference(
                                 true, true, /*staged=*/true);
                         }});
                }
            sim.setTraceMode(gpusim::TraceMode::kOff);
            serve::replayPlans(sim, sources);

            // Fold measured completions back (instance order, then
            // plan order).
            for (const serve::PlanSource &src : sources) {
                for (const auto &pd : src.inst->plan) {
                    double end = sim.eventSeconds(pd.end);
                    for (std::int64_t id : pd.request_ids) {
                        serve::Request &r =
                            requests[static_cast<std::size_t>(id)];
                        r.outcome = serve::Outcome::kCompleted;
                        r.done_s = end;
                        r.device = node;
                    }
                }
            }
        };
        const int threads =
            std::min(std::max(1, cfg.sim_threads), n_nodes);
        if (threads <= 1) {
            EDGERT_SPAN("fleet_replay",
                        {{"nodes", std::to_string(n_nodes)},
                         {"threads", "1"}});
            for (int node = 0; node < n_nodes; node++)
                runNode(static_cast<std::size_t>(node));
        } else {
            EDGERT_SPAN("fleet_replay",
                        {{"nodes", std::to_string(n_nodes)},
                         {"threads", std::to_string(threads)}});
            ThreadPool tp(threads);
            tp.parallelFor(static_cast<std::size_t>(n_nodes),
                           runNode);
        }
    }

    // Per-node registries fold into the global one under a
    // per-group prefix: nodes of a pool merge additively into one
    // "fleet.<group>.gpusim.*" rollup, in node id order.
    {
        obs::MetricRegistry &global =
            obs::MetricRegistry::global();
        for (int node = 0; node < n_nodes; node++) {
            const FleetNode &fn =
                fleet.nodes[static_cast<std::size_t>(node)];
            global.mergeFrom(
                *node_regs[static_cast<std::size_t>(node)],
                "fleet." +
                    fleet.groups[static_cast<std::size_t>(
                                     fn.group)]
                        .name +
                    ".");
        }
    }

    // ------------------------------------------------------------
    // Report assembly (request-id order).
    // ------------------------------------------------------------
    FleetReport report;
    report.seed = cfg.seed;
    report.duration_s = cfg.duration_s;
    report.route_policy = routePolicyName(cfg.route_policy);
    report.placement = placementPolicyName(cfg.placement);
    report.vnodes = cfg.vnodes;
    report.nodes = n_nodes;

    std::vector<std::vector<double>> model_lat(
        static_cast<std::size_t>(n_models));
    std::vector<std::vector<double>> group_lat(fleet.groups.size());
    std::vector<std::int64_t> within_slo(
        static_cast<std::size_t>(n_models), 0);
    std::vector<double> all_lat;
    for (const serve::Request &r : requests) {
        report.offered++;
        mstats[static_cast<std::size_t>(r.model)].offered++;
        if (r.outcome == serve::Outcome::kShed) {
            report.shed++;
            continue;
        }
        if (r.outcome != serve::Outcome::kCompleted) {
            report.unaccounted++;
            continue;
        }
        report.completed++;
        double ms = r.latencyMs();
        all_lat.push_back(ms);
        model_lat[static_cast<std::size_t>(r.model)].push_back(ms);
        if (r.sloMet())
            within_slo[static_cast<std::size_t>(r.model)]++;
        int g = fleet.nodes[static_cast<std::size_t>(r.device)]
                    .group;
        group_lat[static_cast<std::size_t>(g)].push_back(ms);
    }
    report.aggregate_offered_qps =
        static_cast<double>(report.offered) / cfg.duration_s;
    if (!all_lat.empty()) {
        report.mean_ms = mean(all_lat);
        report.p50_ms = percentile(all_lat, 50.0);
        report.p95_ms = percentile(all_lat, 95.0);
        report.p99_ms = percentile(all_lat, 99.0);
        report.max_ms =
            *std::max_element(all_lat.begin(), all_lat.end());
    }

    for (int c = 0; c < n_classes; c++) {
        FleetClassStats cs;
        cs.label =
            fleet.classes[static_cast<std::size_t>(c)].label();
        for (const FleetNode &fn : fleet.nodes)
            if (fn.dev_class == c)
                cs.nodes++;
        for (int m = 0; m < n_models; m++)
            cs.svc1_ms.push_back(
                versions[static_cast<std::size_t>(m)][0]
                    .sets[static_cast<std::size_t>(c)]
                    .service_s.front() *
                1e3);
        report.classes.push_back(std::move(cs));
    }

    for (int m = 0; m < n_models; m++) {
        auto mi = static_cast<std::size_t>(m);
        const auto &mc = cfg.models[mi];
        FleetModelStats &s = mstats[mi];
        s.model = mc.model;
        s.slo_ms = mc.slo_ms;
        s.completed =
            static_cast<std::int64_t>(model_lat[mi].size());
        s.slo_violations = s.completed - within_slo[mi];
        s.offered_qps =
            static_cast<double>(s.offered) / cfg.duration_s;
        s.goodput_qps = static_cast<double>(within_slo[mi]) /
                        cfg.duration_s;
        s.attainment_pct =
            s.offered > 0
                ? 100.0 * static_cast<double>(within_slo[mi]) /
                      static_cast<double>(s.offered)
                : 0.0;
        s.mean_batch =
            s.batches > 0
                ? static_cast<double>(model_dispatched[mi]) /
                      static_cast<double>(s.batches)
                : 0.0;
        if (!model_lat[mi].empty()) {
            s.mean_ms = mean(model_lat[mi]);
            s.p50_ms = percentile(model_lat[mi], 50.0);
            s.p95_ms = percentile(model_lat[mi], 95.0);
            s.p99_ms = percentile(model_lat[mi], 99.0);
            s.max_ms = *std::max_element(model_lat[mi].begin(),
                                         model_lat[mi].end());
        }
    }
    report.models = std::move(mstats);

    for (std::size_t g = 0; g < fleet.groups.size(); g++) {
        FleetGroupStats gs;
        gs.group = fleet.groups[g].name;
        for (const FleetNode &fn : fleet.nodes) {
            if (static_cast<std::size_t>(fn.group) != g)
                continue;
            if (gs.nodes == 0)
                gs.dev_class =
                    fleet.classes[static_cast<std::size_t>(
                                      fn.dev_class)]
                        .label();
            gs.nodes++;
            if (quarantined[static_cast<std::size_t>(fn.id)])
                gs.quarantined++;
            if (failed[static_cast<std::size_t>(fn.id)])
                gs.failed++;
        }
        gs.completed =
            static_cast<std::int64_t>(group_lat[g].size());
        if (!group_lat[g].empty()) {
            gs.mean_ms = mean(group_lat[g]);
            gs.p99_ms = percentile(group_lat[g], 99.0);
        }
        report.groups.push_back(std::move(gs));
    }

    report.events = std::move(events);
    report.rollouts = std::move(ro_stats);

    report.alerts.pages = rollup.pages();
    report.alerts.warns = rollup.warns();
    report.alerts.clears = rollup.clears();
    report.alerts.first_page_s = rollup.firstPageSeconds();
    for (const watch::GroupAlertCounts &gc : rollup.byGroup()) {
        FleetAlertStats::Group g;
        g.group = gc.group;
        g.pages = gc.pages;
        g.warns = gc.warns;
        g.clears = gc.clears;
        report.alerts.by_group.push_back(std::move(g));
    }

    // A handful of fleet-level gauges for the CLI's metric dumps.
    {
        obs::MetricRegistry &reg = obs::MetricRegistry::global();
        reg.gauge("fleet.nodes", {}).set(
            static_cast<double>(n_nodes));
        int nq = 0;
        for (int node = 0; node < n_nodes; node++)
            if (quarantined[static_cast<std::size_t>(node)])
                nq++;
        reg.gauge("fleet.nodes.quarantined", {})
            .set(static_cast<double>(nq));
        for (const FleetModelStats &s : report.models) {
            const obs::Labels ml = {{"model", s.model}};
            reg.gauge("fleet.model.completed", ml)
                .set(static_cast<double>(s.completed));
            reg.gauge("fleet.model.shed", ml)
                .set(static_cast<double>(s.shed));
            reg.gauge("fleet.model.p99_ms", ml).set(s.p99_ms);
        }
    }

    return report;
}

std::string
FleetReport::toJson() const
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"seed\": " << seed << ",\n";
    os << "  \"duration_s\": " << jsonNumber(duration_s) << ",\n";
    os << "  \"route_policy\": \"" << jsonEscape(route_policy)
       << "\",\n";
    os << "  \"placement\": \"" << jsonEscape(placement) << "\",\n";
    os << "  \"vnodes\": " << vnodes << ",\n";
    os << "  \"nodes\": " << nodes << ",\n";
    os << "  \"offered\": " << offered << ",\n";
    os << "  \"completed\": " << completed << ",\n";
    os << "  \"shed\": " << shed << ",\n";
    os << "  \"unaccounted\": " << unaccounted << ",\n";
    os << "  \"aggregate_offered_qps\": "
       << jsonNumber(aggregate_offered_qps) << ",\n";
    os << "  \"latency_ms\": {\n";
    os << "    \"mean\": " << jsonNumber(mean_ms) << ",\n";
    os << "    \"p50\": " << jsonNumber(p50_ms) << ",\n";
    os << "    \"p95\": " << jsonNumber(p95_ms) << ",\n";
    os << "    \"p99\": " << jsonNumber(p99_ms) << ",\n";
    os << "    \"max\": " << jsonNumber(max_ms) << "\n";
    os << "  },\n";
    os << "  \"classes\": [\n";
    for (std::size_t i = 0; i < classes.size(); i++) {
        const FleetClassStats &c = classes[i];
        os << "    {\"label\": \"" << jsonEscape(c.label)
           << "\", \"nodes\": " << c.nodes << ", \"svc1_ms\": [";
        for (std::size_t m = 0; m < c.svc1_ms.size(); m++)
            os << (m ? ", " : "") << jsonNumber(c.svc1_ms[m]);
        os << "]}" << (i + 1 < classes.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"models\": [\n";
    for (std::size_t i = 0; i < models.size(); i++) {
        const FleetModelStats &s = models[i];
        os << "    {\n";
        os << "      \"model\": \"" << jsonEscape(s.model)
           << "\",\n";
        os << "      \"slo_ms\": " << jsonNumber(s.slo_ms)
           << ",\n";
        os << "      \"serving_nodes\": " << s.serving_nodes
           << ",\n";
        os << "      \"placement_rank\": [";
        for (std::size_t r = 0; r < s.placement_rank.size(); r++)
            os << (r ? ", " : "") << "\""
               << jsonEscape(s.placement_rank[r]) << "\"";
        os << "],\n";
        os << "      \"offered\": " << s.offered << ",\n";
        os << "      \"offered_qps\": "
           << jsonNumber(s.offered_qps) << ",\n";
        os << "      \"shed\": " << s.shed << ",\n";
        os << "      \"completed\": " << s.completed << ",\n";
        os << "      \"slo_violations\": " << s.slo_violations
           << ",\n";
        os << "      \"attainment_pct\": "
           << jsonNumber(s.attainment_pct) << ",\n";
        os << "      \"batches\": " << s.batches << ",\n";
        os << "      \"mean_batch\": " << jsonNumber(s.mean_batch)
           << ",\n";
        os << "      \"goodput_qps\": "
           << jsonNumber(s.goodput_qps) << ",\n";
        os << "      \"latency_ms\": {\n";
        os << "        \"mean\": " << jsonNumber(s.mean_ms)
           << ",\n";
        os << "        \"p50\": " << jsonNumber(s.p50_ms) << ",\n";
        os << "        \"p95\": " << jsonNumber(s.p95_ms) << ",\n";
        os << "        \"p99\": " << jsonNumber(s.p99_ms) << ",\n";
        os << "        \"max\": " << jsonNumber(s.max_ms) << "\n";
        os << "      }\n";
        os << "    }" << (i + 1 < models.size() ? "," : "")
           << "\n";
    }
    os << "  ],\n";
    os << "  \"groups\": [\n";
    for (std::size_t i = 0; i < groups.size(); i++) {
        const FleetGroupStats &g = groups[i];
        os << "    {\"group\": \"" << jsonEscape(g.group)
           << "\", \"class\": \"" << jsonEscape(g.dev_class)
           << "\", \"nodes\": " << g.nodes
           << ", \"quarantined\": " << g.quarantined
           << ", \"failed\": " << g.failed
           << ", \"completed\": " << g.completed
           << ", \"mean_ms\": " << jsonNumber(g.mean_ms)
           << ", \"p99_ms\": " << jsonNumber(g.p99_ms) << "}"
           << (i + 1 < groups.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"events\": [\n";
    for (std::size_t i = 0; i < events.size(); i++) {
        const FleetEvent &e = events[i];
        os << "    {\"t_s\": " << jsonNumber(e.t_s)
           << ", \"node\": " << e.node << ", \"name\": \""
           << jsonEscape(e.node_name) << "\", \"kind\": \""
           << jsonEscape(e.kind) << "\", \"reason\": \""
           << jsonEscape(e.reason)
           << "\", \"rerouted\": " << e.rerouted
           << ", \"remap_pct\": " << jsonNumber(e.remap_pct)
           << "}" << (i + 1 < events.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"rollouts\": [\n";
    for (std::size_t i = 0; i < rollouts.size(); i++) {
        const RolloutStats &ro = rollouts[i];
        os << "    {\n";
        os << "      \"model\": \"" << jsonEscape(ro.model)
           << "\",\n";
        os << "      \"candidate_build_id\": "
           << ro.candidate_build_id << ",\n";
        os << "      \"halted\": "
           << (ro.halted ? "true" : "false") << ",\n";
        os << "      \"verdicts\": [\n";
        for (std::size_t v = 0; v < ro.verdicts.size(); v++) {
            const ClassVerdictStats &cs = ro.verdicts[v];
            os << "        {\"class\": \""
               << jsonEscape(cs.dev_class) << "\", \"accepted\": "
               << (cs.accepted ? "true" : "false")
               << ", \"reason\": \"" << jsonEscape(cs.reason)
               << "\", \"disagreement_pct\": "
               << jsonNumber(cs.disagreement_pct)
               << ", \"kernel_remap_pct\": "
               << jsonNumber(cs.kernel_remap_pct) << "}"
               << (v + 1 < ro.verdicts.size() ? "," : "") << "\n";
        }
        os << "      ],\n";
        os << "      \"stages\": [\n";
        for (std::size_t s = 0; s < ro.stages.size(); s++) {
            const RolloutStageStats &ss = ro.stages[s];
            os << "        {\"t_s\": " << jsonNumber(ss.t_s)
               << ", \"pct\": " << jsonNumber(ss.pct)
               << ", \"executed\": "
               << (ss.executed ? "true" : "false")
               << ", \"cohort\": " << ss.cohort
               << ", \"switched\": " << ss.switched
               << ", \"quarantined\": " << ss.quarantined << "}"
               << (s + 1 < ro.stages.size() ? "," : "") << "\n";
        }
        os << "      ]\n";
        os << "    }" << (i + 1 < rollouts.size() ? "," : "")
           << "\n";
    }
    os << "  ],\n";
    os << "  \"alerts\": {\n";
    os << "    \"pages\": " << alerts.pages << ",\n";
    os << "    \"warns\": " << alerts.warns << ",\n";
    os << "    \"clears\": " << alerts.clears << ",\n";
    os << "    \"first_page_s\": " << jsonNumber(alerts.first_page_s)
       << ",\n";
    os << "    \"by_group\": [\n";
    for (std::size_t i = 0; i < alerts.by_group.size(); i++) {
        const FleetAlertStats::Group &g = alerts.by_group[i];
        os << "      {\"group\": \"" << jsonEscape(g.group)
           << "\", \"pages\": " << g.pages
           << ", \"warns\": " << g.warns
           << ", \"clears\": " << g.clears << "}"
           << (i + 1 < alerts.by_group.size() ? "," : "") << "\n";
    }
    os << "    ]\n";
    os << "  }\n";
    os << "}\n";
    return os.str();
}

} // namespace edgert::fleet
