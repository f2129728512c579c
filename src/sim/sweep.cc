#include "sim/sweep.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>
#include <unordered_map>

#include "common/log.hh"
#include "sim/journal.hh"
#include "sim/sweep_journal.hh"

namespace libra
{

std::shared_ptr<const Scene>
SceneCache::get(const BenchmarkSpec &spec, std::uint32_t width,
                std::uint32_t height)
{
    std::shared_ptr<Slot> slot;
    {
        std::lock_guard<std::mutex> lock(mtx);
        auto &entry = slots[Key{spec.abbrev, width, height}];
        if (!entry)
            entry = std::make_shared<Slot>();
        slot = entry;
    }
    // Build outside the map lock: a slow scene build must not serialize
    // lookups of other keys. call_once makes racing getters of the same
    // key wait for the one builder.
    std::call_once(slot->once, [&] {
        slot->scene = std::make_shared<const Scene>(spec, width, height);
        ++built;
    });
    return slot->scene;
}

namespace
{

/** Run one job start-to-finish; never throws. */
Result<RunResult>
runJob(const SweepJob &job, SceneCache &scenes,
       const CheckpointPlan &checkpoint)
{
    try {
        if (!job.spec) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "sweep job without a benchmark spec");
        }
        // Validate before the scene is fetched: a scene cannot be built
        // for a configuration that fails validation (a zero-size
        // screen, say).
        if (Status st = validateForBenchmark(*job.spec, job.config);
            !st.isOk()) {
            return st;
        }
        const std::shared_ptr<const Scene> scene = scenes.get(
            *job.spec, job.config.screenWidth, job.config.screenHeight);
        return runBenchmark(*scene, job.config, job.frames,
                            job.firstFrame, checkpoint);
    } catch (const std::exception &e) {
        // Isolation: a throwing job loses its own data point only.
        return Status::error(ErrorCode::FailedPrecondition, "benchmark ",
                             job.spec ? job.spec->abbrev : "?",
                             ": uncaught exception: ", e.what());
    }
}

} // namespace

SweepRunner::SweepRunner(unsigned workers)
    : workerCount(workers != 0 ? workers
                               : std::max(1u,
                                          std::thread::
                                              hardware_concurrency()))
{}

Status
Quarantine::check(std::uint64_t config_hash) const
{
    if (threshold == 0)
        return Status::ok();
    std::lock_guard<std::mutex> lock(mtx);
    const auto it = failures.find(config_hash);
    if (it == failures.end() || it->second < threshold)
        return Status::ok();
    return Status::error(ErrorCode::FailedPrecondition,
                         "config quarantined after ", it->second,
                         " permanent failures");
}

void
Quarantine::record(std::uint64_t config_hash, ErrorCode code)
{
    if (threshold == 0 || isTransientFailure(code))
        return;
    std::lock_guard<std::mutex> lock(mtx);
    ++failures[config_hash];
}

std::size_t
SweepOutcome::failureCount() const
{
    std::size_t n = 0;
    for (const JobOutcome &o : jobs)
        if (!o.result.isOk())
            ++n;
    return n;
}

namespace
{

/**
 * One warm-prefix group: jobs with equal (benchmark, resolution, frame
 * range, warmPrefixHash) share the snapshot of their common opening
 * frames. The first member to run renders the prefix once (call_once;
 * racing members block on it); a failed prefix leaves bytes null and
 * every member silently runs cold.
 */
struct WarmGroup
{
    std::once_flag once;
    std::shared_ptr<const std::vector<std::uint8_t>> bytes;
};

/** Shared mutable state of one runWithPolicy() execution. */
struct PolicyRun
{
    explicit PolicyRun(std::uint32_t quarantine_threshold)
        : quarantine(quarantine_threshold)
    {}

    const std::vector<SweepJob> *jobs = nullptr;
    const SweepPolicy *policy = nullptr;
    SceneCache *scenes = nullptr;
    std::vector<std::string> keys;       //!< sweepJobKey per job
    std::vector<std::uint64_t> hashes;   //!< configHash per job
    std::vector<JobOutcome> *outcomes = nullptr;

    /** Warm-prefix group of each job; null = no forking for it. */
    std::vector<std::shared_ptr<WarmGroup>> warmGroups;
    std::atomic<std::uint64_t> warmForks{0};

    Quarantine quarantine;
    Journal *journal = nullptr; //!< null when no journal armed

    /** Set once the journal's simulated kill fires: the "process" is
     *  dead, so no further job may start. */
    std::atomic<bool> killFlag{false};
};

/** "job 3 [CCS:256x128:f2@0:cfg:...]: <message>" — attributable in
 *  farm logs (satellite: job index + benchmark + config hash). */
Status
attributed(const PolicyRun &run, std::size_t index, const Status &st)
{
    return Status::error(st.code(), "job ", index, " [",
                         run.keys[index], "]: ", st.message());
}

void
journalOutcome(PolicyRun &run, std::size_t index)
{
    if (!run.journal)
        return;
    const JobOutcome &outcome = (*run.outcomes)[index];
    JournalRecord record;
    record.key = run.keys[index];
    record.attempts = outcome.attempts;
    if (outcome.result.isOk()) {
        record.ok = true;
        record.result = *outcome.result;
    } else {
        record.ok = false;
        record.code = outcome.result.status().code();
        record.message = outcome.result.status().message();
    }
    if (Status st = run.journal->append(sweepJournalLine(record));
        !st.isOk())
        warn("sweep journal: ", st.toString());
    if (run.journal->killed())
        run.killFlag.store(true, std::memory_order_relaxed);
}

/** Execute job @p index under the policy: quarantine fast-fail, then
 *  the attempt/retry loop, then journaling. */
void
runPolicyJob(PolicyRun &run, std::size_t index)
{
    const SweepPolicy &policy = *run.policy;
    JobOutcome &outcome = (*run.outcomes)[index];

    if (run.killFlag.load(std::memory_order_relaxed)) {
        outcome.notRun = true;
        outcome.result = attributed(
            run, index,
            Status::error(ErrorCode::Unavailable,
                          "sweep terminated before this job started"));
        return; // a dead process journals nothing
    }

    if (Status st = run.quarantine.check(run.hashes[index]);
        !st.isOk()) {
        outcome.quarantined = true;
        outcome.result = attributed(run, index, st);
        journalOutcome(run, index);
        return;
    }

    // --- Checkpoint plan (constant across attempts) -------------------
    CheckpointPlan checkpoint;
    checkpoint.dir = policy.checkpoint.dir;
    checkpoint.every = policy.checkpoint.every;
    checkpoint.restore = policy.checkpoint.fromCheckpoint;
    if (const std::shared_ptr<WarmGroup> group = run.warmGroups[index]) {
        std::call_once(group->once, [&] {
            // First member to arrive renders the shared prefix once
            // and captures its frame-boundary snapshot in memory.
            SweepJob prefix = (*run.jobs)[index];
            prefix.frames = policy.checkpoint.warmPrefixFrames;
            CheckpointPlan capture;
            capture.captureAfter =
                std::make_shared<std::vector<std::uint8_t>>();
            capture.captureAfterFrames = prefix.frames;
            Result<RunResult> r = runJob(prefix, *run.scenes, capture);
            if (r.isOk() && !capture.captureAfter->empty()) {
                group->bytes = capture.captureAfter;
            } else {
                warn("warm prefix of job ", index, " [",
                     run.keys[index], "] failed; its group runs cold",
                     r.isOk() ? "" : (": " + r.status().toString()));
            }
        });
        if (group->bytes) {
            checkpoint.warmStart = group->bytes;
            run.warmForks.fetch_add(1, std::memory_order_relaxed);
        }
    }

    for (std::uint32_t attempt = 0;; ++attempt) {
        ++outcome.attempts;
        SweepJob job = (*run.jobs)[index]; // fresh copy per attempt

        std::shared_ptr<FaultInjector> injector;
        if (!policy.faults.empty()) {
            // Fresh injector per attempt: a retry replays exactly the
            // faults (and fault positions) the first attempt saw.
            injector =
                std::make_shared<FaultInjector>(policy.faults, index);
            job.config.faults = injector;
        }
        if (policy.deadlineMs != 0) {
            auto token = std::make_shared<CancelToken>();
            token->setDeadlineAfterMs(policy.deadlineMs);
            job.config.watchdog.cancel = std::move(token);
        }

        Result<RunResult> r = [&]() -> Result<RunResult> {
            if (injector && injector->failAttempt(attempt)) {
                return Status::error(ErrorCode::Unavailable,
                                     "injected transient failure "
                                     "(attempt ", attempt, ")");
            }
            return runJob(job, *run.scenes, checkpoint);
        }();

        if (r.isOk()) {
            RunResult result = std::move(*r);
            // Scrub the runtime attachments: the stored result must be
            // indistinguishable from a plain runBenchmark()'s.
            result.config.faults.reset();
            result.config.watchdog.cancel.reset();
            outcome.result = std::move(result);
            break;
        }

        const Status &st = r.status();
        if (isTransientFailure(st.code())
            && attempt < policy.maxRetries) {
            if (policy.backoffMs != 0) {
                const std::uint64_t delay = std::min<std::uint64_t>(
                    policy.backoffMs << std::min<std::uint32_t>(attempt,
                                                                20),
                    30'000);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(delay));
            }
            continue;
        }

        run.quarantine.record(run.hashes[index], st.code());
        outcome.result = attributed(run, index, st);
        break;
    }

    journalOutcome(run, index);
}

} // namespace

SweepOutcome
SweepRunner::runWithPolicy(std::vector<SweepJob> jobs,
                           const SweepPolicy &policy, SceneCache *cache)
{
    SweepOutcome out;
    out.jobs.resize(jobs.size());
    if (jobs.empty())
        return out;

    SceneCache own_scenes;
    PolicyRun run(policy.quarantineThreshold);
    run.jobs = &jobs;
    run.policy = &policy;
    run.scenes = cache ? cache : &own_scenes;
    run.outcomes = &out.jobs;
    run.keys.reserve(jobs.size());
    run.hashes.reserve(jobs.size());
    for (const SweepJob &job : jobs) {
        run.keys.push_back(sweepJobKey(job));
        run.hashes.push_back(job.config.configHash());
    }

    // --- Journal: load (resume), then open for appending --------------
    Journal journal;
    std::vector<JournalRecord> replayable;
    if (!policy.journalPath.empty()) {
        if (policy.resume) {
            Result<std::vector<JournalRecord>> loaded =
                loadSweepJournal(policy.journalPath);
            if (!loaded.isOk()) {
                for (std::size_t i = 0; i < jobs.size(); ++i)
                    out.jobs[i].result =
                        attributed(run, i, loaded.status());
                return out;
            }
            replayable = std::move(*loaded);
        }
        if (Status st =
                journal.open(policy.journalPath, Journal::Mode::Append);
            !st.isOk()) {
            for (std::size_t i = 0; i < jobs.size(); ++i)
                out.jobs[i].result = attributed(run, i, st);
            return out;
        }
        if (!policy.faults.empty()) {
            journal.armKill(
                FaultInjector(policy.faults, 0).killAtAppend());
        }
        run.journal = &journal;
    }

    // --- Resume: replay journaled successes ---------------------------
    // Failed records are deliberately NOT replayed: re-running them is
    // the point of resuming (a transient hiccup may have cleared).
    std::unordered_map<std::string, const JournalRecord *> done;
    for (const JournalRecord &record : replayable)
        if (record.ok)
            done[record.key] = &record;

    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        auto it = done.find(run.keys[i]);
        if (it == done.end()) {
            pending.push_back(i);
            continue;
        }
        JobOutcome &outcome = out.jobs[i];
        RunResult result = it->second->result;
        result.config = jobs[i].config; // the key proved them identical
        result.config.faults.reset();
        result.config.watchdog.cancel.reset();
        outcome.result = std::move(result);
        outcome.attempts = it->second->attempts;
        outcome.fromJournal = true;
        ++out.replayedFromJournal;
    }

    // --- Warm-prefix groups (CheckpointPolicy::warmPrefixFrames) ------
    // Grouped over the still-pending jobs only; a group needs >= 2
    // members to amortize the prefix run, and each member must render
    // past the prefix. Disabled under a fault plan: injected faults
    // are positional, so forking would change what each job observes.
    run.warmGroups.assign(jobs.size(), nullptr);
    if (policy.checkpoint.warmPrefixFrames > 0 && policy.faults.empty()) {
        using GroupKey =
            std::tuple<std::string, std::uint32_t, std::uint32_t,
                       std::uint32_t, std::uint32_t, std::uint64_t>;
        std::map<GroupKey, std::vector<std::size_t>> groups;
        for (std::size_t index : pending) {
            const SweepJob &job = jobs[index];
            if (!job.spec
                || job.frames <= policy.checkpoint.warmPrefixFrames)
                continue;
            groups[GroupKey{job.spec->abbrev, job.config.screenWidth,
                            job.config.screenHeight, job.frames,
                            job.firstFrame,
                            job.config.warmPrefixHash()}]
                .push_back(index);
        }
        for (const auto &[key, members] : groups) {
            if (members.size() < 2)
                continue;
            auto group = std::make_shared<WarmGroup>();
            for (std::size_t index : members)
                run.warmGroups[index] = group;
        }
    }

    // --- Chains: quarantine needs same-config jobs serialized ---------
    // (deterministic strike counting); otherwise every job is its own
    // chain and the pool keeps full parallelism.
    std::vector<std::vector<std::size_t>> chains;
    if (policy.quarantineThreshold > 0) {
        std::unordered_map<std::uint64_t, std::size_t> chain_of;
        for (std::size_t index : pending) {
            auto [it, inserted] =
                chain_of.try_emplace(run.hashes[index], chains.size());
            if (inserted)
                chains.emplace_back();
            chains[it->second].push_back(index);
        }
    } else {
        chains.reserve(pending.size());
        for (std::size_t index : pending)
            chains.push_back({index});
    }

    // --- Workers: every chain comes off one shared cursor -------------
    // Each result lands in its job's slot, so no output depends on which
    // worker ran what. The calling thread is one of the workers, so a
    // one-worker sweep starts no thread.
    std::atomic<std::size_t> cursor{0};
    const auto work = [&] {
        for (std::size_t c = cursor++; c < chains.size(); c = cursor++)
            for (std::size_t index : chains[c])
                runPolicyJob(run, index);
    };
    {
        const std::size_t workers =
            std::min<std::size_t>(workerCount, chains.size());
        std::vector<std::jthread> helpers;
        for (std::size_t w = 1; w < workers; ++w)
            helpers.emplace_back(work);
        work();
    } // the helpers join here

    out.killed = run.killFlag.load(std::memory_order_relaxed);
    out.warmPrefixForks =
        run.warmForks.load(std::memory_order_relaxed);
    return out;
}

} // namespace libra
