/**
 * @file
 * Fault-tolerant sweep execution (SweepRunner::runWithPolicy):
 * default-policy equivalence with serial runBenchmark() calls,
 * attributed failure messages, transient-failure retries, wall-clock
 * deadlines, the Quarantine rule, the crash-safe Journal (load rules,
 * open modes, simulated kill) and the sweep journal with resume, and
 * the kill-and-resume round trip whose final report must be
 * byte-identical to an uninterrupted run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/fault_injector.hh"
#include "gpu/gpu_config.hh"
#include "sim/journal.hh"
#include "sim/sweep.hh"
#include "sim/sweep_journal.hh"
#include "trace/json.hh"
#include "trace/run_report.hh"
#include "workload/benchmarks.hh"

using namespace libra;

namespace
{

constexpr std::uint32_t kWidth = 256;
constexpr std::uint32_t kHeight = 128;

GpuConfig
smallConfig(GpuConfig cfg)
{
    cfg.screenWidth = kWidth;
    cfg.screenHeight = kHeight;
    return cfg;
}

std::vector<SweepJob>
smallJobs(const BenchmarkSpec &ccs, std::size_t count = 3)
{
    std::vector<SweepJob> jobs;
    jobs.push_back({&ccs, smallConfig(GpuConfig::baseline(8)), 2, 0});
    if (count > 1)
        jobs.push_back({&ccs, smallConfig(GpuConfig::ptr(2, 4)), 2, 0});
    if (count > 2)
        jobs.push_back(
            {&ccs, smallConfig(GpuConfig::libra(2, 4)), 2, 0});
    return jobs;
}

/** Self-deleting temp path for journal files. */
class JournalPath
{
  public:
    explicit JournalPath(const char *tag)
        : path_(std::string("/tmp/libra_journal_")
                + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name()
                + "_" + tag + ".jsonl")
    {
        std::remove(path_.c_str());
    }
    ~JournalPath() { std::remove(path_.c_str()); }
    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

constexpr const char *kTestSchema = "libra.test_journal/1";

/** One JSON-lines record of @p schema. */
std::string
record(int n, const char *schema = kTestSchema)
{
    return std::string("{\"schema\":\"") + schema + "\",\"n\":"
        + std::to_string(n) + "}";
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream(path, std::ios::binary) << text;
}

std::string
readFile(const std::string &path)
{
    std::ostringstream os;
    os << std::ifstream(path, std::ios::binary).rdbuf();
    return os.str();
}

/** Report-set document of a SweepOutcome, the way the benches build
 *  it: completed runs in order plus the failures section. */
std::string
outcomeReport(const std::vector<SweepJob> &jobs,
              const SweepOutcome &outcome)
{
    std::vector<RunResult> runs;
    std::vector<ReportFailure> failures;
    for (std::size_t i = 0; i < outcome.jobs.size(); ++i) {
        const JobOutcome &o = outcome.jobs[i];
        if (o.result.isOk()) {
            runs.push_back(*o.result);
            continue;
        }
        const Status &st = o.result.status();
        failures.push_back({i, sweepJobKey(jobs[i]),
                            errorCodeName(st.code()),
                            std::string(st.message()), o.attempts,
                            o.quarantined, o.notRun});
    }
    return sweepReportJson(runs, failures);
}

} // namespace

TEST(SweepPolicy, DefaultPolicyMatchesPlainRun)
{
    const BenchmarkSpec &ccs = findBenchmark("CCS");

    SweepRunner pool(4);
    SceneCache cache;
    SweepOutcome policied =
        pool.runWithPolicy(smallJobs(ccs), SweepPolicy{}, &cache);

    // The reference: each job run directly and serially.
    std::vector<Result<RunResult>> plain;
    for (const SweepJob &job : smallJobs(ccs)) {
        plain.push_back(runBenchmark(*job.spec, job.config, job.frames,
                                     job.firstFrame));
    }

    ASSERT_EQ(plain.size(), policied.jobs.size());
    EXPECT_FALSE(policied.killed);
    EXPECT_EQ(policied.replayedFromJournal, 0u);
    EXPECT_EQ(policied.failureCount(), 0u);
    for (std::size_t i = 0; i < plain.size(); ++i) {
        ASSERT_TRUE(plain[i].isOk());
        ASSERT_TRUE(policied.jobs[i].result.isOk());
        EXPECT_EQ(policied.jobs[i].attempts, 1u);
        EXPECT_FALSE(policied.jobs[i].fromJournal);
        // Byte-identical results, not merely statistically close.
        EXPECT_EQ(runReportJson(*plain[i]),
                  runReportJson(*policied.jobs[i].result));
    }
}

TEST(SweepPolicy, FailureMessagesAreAttributed)
{
    const BenchmarkSpec &ccs = findBenchmark("CCS");
    std::vector<SweepJob> jobs = smallJobs(ccs, 1);
    jobs[0].config.rasterUnits = 0; // fails config validation
    const std::string key = sweepJobKey(jobs[0]);

    SweepRunner pool(1);
    SweepOutcome out = pool.runWithPolicy(std::move(jobs),
                                          SweepPolicy{});
    ASSERT_EQ(out.jobs.size(), 1u);
    ASSERT_FALSE(out.jobs[0].result.isOk());
    const std::string msg(out.jobs[0].result.status().message());
    EXPECT_EQ(msg.rfind("job 0 [" + key + "]: ", 0), 0u) << msg;
    // The key carries benchmark, resolution and the config hash.
    EXPECT_NE(key.find("CCS"), std::string::npos);
    EXPECT_NE(key.find("256x128"), std::string::npos);
    EXPECT_NE(key.find(":cfg:"), std::string::npos);
}

TEST(SweepPolicy, InjectedTransientFailureRetriesToSuccess)
{
    const BenchmarkSpec &ccs = findBenchmark("CCS");

    SweepPolicy policy;
    policy.maxRetries = 2;
    policy.backoffMs = 0; // keep the test fast
    Result<FaultPlan> plan = FaultPlan::parse("transient@job=1,count=2");
    ASSERT_TRUE(plan.isOk());
    policy.faults = *plan;

    SweepRunner pool(2);
    SceneCache cache, cache_ref;
    SweepOutcome out =
        pool.runWithPolicy(smallJobs(ccs), policy, &cache);
    ASSERT_EQ(out.jobs.size(), 3u);
    EXPECT_EQ(out.failureCount(), 0u);
    EXPECT_EQ(out.jobs[0].attempts, 1u);
    EXPECT_EQ(out.jobs[1].attempts, 3u); // 2 injected failures + 1 ok
    EXPECT_EQ(out.jobs[2].attempts, 1u);

    // Sweep-layer faults never perturb the simulation: results are
    // byte-identical to a fault-free sweep.
    SweepOutcome ref =
        pool.runWithPolicy(smallJobs(ccs), SweepPolicy{}, &cache_ref);
    for (std::size_t i = 0; i < ref.jobs.size(); ++i) {
        ASSERT_TRUE(ref.jobs[i].result.isOk());
        EXPECT_EQ(runReportJson(*ref.jobs[i].result),
                  runReportJson(*out.jobs[i].result));
    }
}

TEST(SweepPolicy, TransientFailureWithoutRetriesIsReported)
{
    const BenchmarkSpec &ccs = findBenchmark("CCS");

    SweepPolicy policy; // maxRetries = 0
    Result<FaultPlan> plan = FaultPlan::parse("transient@job=0,count=1");
    ASSERT_TRUE(plan.isOk());
    policy.faults = *plan;

    SweepRunner pool(1);
    SweepOutcome out = pool.runWithPolicy(smallJobs(ccs, 1), policy);
    ASSERT_EQ(out.jobs.size(), 1u);
    ASSERT_FALSE(out.jobs[0].result.isOk());
    const Status &st = out.jobs[0].result.status();
    EXPECT_EQ(st.code(), ErrorCode::Unavailable);
    EXPECT_TRUE(isTransientFailure(st.code()));
    EXPECT_NE(std::string(st.message()).find(
                  "injected transient failure"),
              std::string::npos);
    EXPECT_EQ(out.jobs[0].attempts, 1u);
}

TEST(SweepPolicy, ExpiredDeadlineAbortsWithDeadlineExceeded)
{
    const BenchmarkSpec &ccs = findBenchmark("CCS");

    SweepPolicy policy;
    policy.deadlineMs = 1; // expires before the event loop's first poll

    SweepRunner pool(1);
    SweepOutcome out = pool.runWithPolicy(smallJobs(ccs, 1), policy);
    ASSERT_EQ(out.jobs.size(), 1u);
    ASSERT_FALSE(out.jobs[0].result.isOk());
    EXPECT_EQ(out.jobs[0].result.status().code(),
              ErrorCode::DeadlineExceeded);
    EXPECT_TRUE(
        isTransientFailure(out.jobs[0].result.status().code()));
}

TEST(SweepPolicy, QuarantineFastFailsRepeatOffenders)
{
    const BenchmarkSpec &ccs = findBenchmark("CCS");

    GpuConfig bad = smallConfig(GpuConfig::baseline(8));
    bad.rasterUnits = 0;
    std::vector<SweepJob> jobs;
    jobs.push_back({&ccs, bad, 2, 0});
    jobs.push_back({&ccs, bad, 2, 0}); // same config hash
    jobs.push_back({&ccs, smallConfig(GpuConfig::libra(2, 4)), 2, 0});

    SweepPolicy policy;
    policy.quarantineThreshold = 1;

    SweepRunner pool(4);
    SweepOutcome out = pool.runWithPolicy(std::move(jobs), policy);
    ASSERT_EQ(out.jobs.size(), 3u);

    ASSERT_FALSE(out.jobs[0].result.isOk());
    EXPECT_FALSE(out.jobs[0].quarantined);
    EXPECT_EQ(out.jobs[0].result.status().code(),
              ErrorCode::InvalidArgument);

    ASSERT_FALSE(out.jobs[1].result.isOk());
    EXPECT_TRUE(out.jobs[1].quarantined);
    EXPECT_EQ(out.jobs[1].result.status().code(),
              ErrorCode::FailedPrecondition);
    EXPECT_NE(std::string(out.jobs[1].result.status().message())
                  .find("quarantined"),
              std::string::npos);

    // An unrelated config is untouched by the quarantine.
    EXPECT_TRUE(out.jobs[2].result.isOk());
}

TEST(Quarantine, TransientCodesNeverStrike)
{
    Quarantine q(1);
    for (int i = 0; i < 3; ++i) {
        q.record(7, ErrorCode::DeadlineExceeded);
        q.record(7, ErrorCode::Unavailable);
    }
    EXPECT_TRUE(q.check(7).isOk());
}

TEST(Quarantine, PermanentCodeStrikes)
{
    Quarantine q(2);
    q.record(7, ErrorCode::InvalidArgument);
    EXPECT_TRUE(q.check(7).isOk()); // one strike, threshold two
    q.record(7, ErrorCode::WatchdogExpired);
    const Status st = q.check(7);
    ASSERT_FALSE(st.isOk());
    EXPECT_EQ(st.code(), ErrorCode::FailedPrecondition);
    EXPECT_NE(st.message().find("quarantined after 2 permanent failures"),
              std::string::npos)
        << st.message();
    EXPECT_TRUE(q.check(8).isOk()); // other configs are untouched
}

TEST(Quarantine, ThresholdZeroDoesNothing)
{
    Quarantine q(0);
    for (int i = 0; i < 3; ++i)
        q.record(7, ErrorCode::InvalidArgument);
    EXPECT_TRUE(q.check(7).isOk());
}

TEST(Journal, MissingFileLoadsEmpty)
{
    const JournalPath path("j");
    Result<std::vector<JsonValue>> records =
        Journal::load(path.str(), kTestSchema);
    ASSERT_TRUE(records.isOk()) << records.status().toString();
    EXPECT_TRUE(records->empty());
}

TEST(Journal, AppendedRecordsLoadInOrder)
{
    const JournalPath path("j");
    {
        Journal j;
        ASSERT_TRUE(j.open(path.str(), Journal::Mode::Append).isOk());
        ASSERT_TRUE(j.append(record(1)).isOk());
        ASSERT_TRUE(j.append(record(2)).isOk());
    }
    EXPECT_EQ(readFile(path.str()), record(1) + "\n" + record(2) + "\n");
    Result<std::vector<JsonValue>> records =
        Journal::load(path.str(), kTestSchema);
    ASSERT_TRUE(records.isOk()) << records.status().toString();
    ASSERT_EQ(records->size(), 2u);
    EXPECT_EQ((*records)[1].find("n")->str, "2");
}

TEST(Journal, TornFinalLineIsDropped)
{
    const JournalPath path("j");
    const std::string torn = record(2);
    writeFile(path.str(),
              record(1) + "\n" + torn.substr(0, torn.size() / 2));
    Result<std::vector<JsonValue>> records =
        Journal::load(path.str(), kTestSchema);
    ASSERT_TRUE(records.isOk()) << records.status().toString();
    ASSERT_EQ(records->size(), 1u);
    EXPECT_EQ(records->front().find("n")->str, "1");

    // A complete final record whose newline never reached the disk is
    // not durable either.
    writeFile(path.str(), record(1) + "\n" + record(2));
    records = Journal::load(path.str(), kTestSchema);
    ASSERT_TRUE(records.isOk()) << records.status().toString();
    EXPECT_EQ(records->size(), 1u);
}

TEST(Journal, TornInteriorLineIsCorruptData)
{
    const JournalPath path("j");
    const std::string torn = record(1);
    writeFile(path.str(), torn.substr(0, torn.size() / 2) + "\n"
                              + record(2) + "\n");
    Result<std::vector<JsonValue>> records =
        Journal::load(path.str(), kTestSchema);
    ASSERT_FALSE(records.isOk());
    EXPECT_EQ(records.status().code(), ErrorCode::CorruptData);
}

TEST(Journal, WrongSchemaIsCorruptData)
{
    const JournalPath path("j");
    writeFile(path.str(), record(1) + "\n"
                              + record(2, "libra.other_journal/1") + "\n");
    Result<std::vector<JsonValue>> records =
        Journal::load(path.str(), kTestSchema);
    ASSERT_FALSE(records.isOk());
    EXPECT_EQ(records.status().code(), ErrorCode::CorruptData);
}

TEST(Journal, TruncateModeEmptiesTheFile)
{
    const JournalPath path("j");
    writeFile(path.str(), record(1) + "\n" + record(2) + "\n");
    {
        Journal j;
        ASSERT_TRUE(j.open(path.str(), Journal::Mode::Truncate).isOk());
        EXPECT_EQ(readFile(path.str()), "");
        ASSERT_TRUE(j.append(record(3)).isOk());
    }
    EXPECT_EQ(readFile(path.str()), record(3) + "\n");

    // Append mode keeps what is there.
    Journal j;
    ASSERT_TRUE(j.open(path.str(), Journal::Mode::Append).isOk());
    ASSERT_TRUE(j.append(record(4)).isOk());
    EXPECT_EQ(readFile(path.str()), record(3) + "\n" + record(4) + "\n");
}

TEST(Journal, NothingIsWrittenAfterTheSimulatedKill)
{
    const JournalPath path("j");
    Journal j;
    ASSERT_TRUE(j.open(path.str(), Journal::Mode::Append).isOk());
    j.armKill(2);
    ASSERT_TRUE(j.append(record(1)).isOk());
    EXPECT_FALSE(j.killed());
    ASSERT_TRUE(j.append(record(2)).isOk()); // dies half-way through
    EXPECT_TRUE(j.killed());
    const std::string on_disk = readFile(path.str());
    ASSERT_TRUE(j.append(record(3)).isOk()); // a dead process is silent
    EXPECT_EQ(readFile(path.str()), on_disk);

    const std::string torn = record(2) + "\n";
    EXPECT_EQ(on_disk, record(1) + "\n" + torn.substr(0, torn.size() / 2));
    Result<std::vector<JsonValue>> records =
        Journal::load(path.str(), kTestSchema);
    ASSERT_TRUE(records.isOk()) << records.status().toString();
    EXPECT_EQ(records->size(), 1u);
}

TEST(Journal, AppendWithoutOpenIsAnError)
{
    Journal j;
    EXPECT_FALSE(j.isOpen());
    EXPECT_EQ(j.append(record(1)).code(), ErrorCode::FailedPrecondition);
}

TEST(SweepJournalTest, RunResultJsonRoundTripIsExact)
{
    const BenchmarkSpec &ccs = findBenchmark("CCS");
    GpuConfig cfg = smallConfig(GpuConfig::libra(2, 4));
    cfg.renderingElimination = true; // per-frame skip sets (re-libra)
    cfg.captureImage = true; // exercise the image-hash path too
    Result<RunResult> r = runBenchmark(ccs, cfg, 2);
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    ASSERT_FALSE(r->frames[1].reSkippedTiles.empty());

    JsonWriter w1;
    runResultToJson(w1, *r);
    const std::string first = w1.str();

    Result<JsonValue> parsed = parseJson(first);
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    Result<RunResult> back = runResultFromJson(*parsed);
    ASSERT_TRUE(back.isOk()) << back.status().toString();

    // Exact fidelity: serializing the deserialized result reproduces
    // the document byte for byte (u64 counters, %.17g doubles, image
    // hashes — nothing may lose precision through the journal).
    JsonWriter w2;
    runResultToJson(w2, *back);
    EXPECT_EQ(first, w2.str());
    EXPECT_EQ(r->counters, back->counters);
    EXPECT_EQ(r->frames, back->frames);
}

namespace
{

/** A one-frame result carrying every field the journal stores in
 *  fewer than 64 bits: u32 frame index, DRAM timeline and interval,
 *  supertile size and skipped frame, and an RE skip set of flags. */
RunResult
narrowFieldsResult()
{
    RunResult r;
    r.benchmark = "CCS";
    FrameStats fs;
    fs.frameIndex = 1;
    fs.dramTimeline = {7};
    fs.supertileSize = 4;
    fs.reTilesSkipped = 1;
    fs.reSkippedTiles = {0, 1};
    r.frames.push_back(fs);
    r.skippedFrames = {3};
    return r;
}

/** Decode narrowFieldsResult()'s JSON with @p from replaced by @p to. */
Result<RunResult>
decodeEdited(const std::string &from, const std::string &to)
{
    JsonWriter w;
    runResultToJson(w, narrowFieldsResult());
    std::string text = w.str();
    const std::size_t at = text.find(from);
    if (at == std::string::npos) {
        return Status::error(ErrorCode::NotFound, "no '", from, "' in ",
                             text);
    }
    text.replace(at, from.size(), to);
    Result<JsonValue> doc = parseJson(text);
    if (!doc.isOk())
        return doc.status();
    return runResultFromJson(*doc);
}

/** @p key's value @p from decodes at its field's maximum @p max and is
 *  refused as CorruptData, naming @p key, at @p over. */
void
expectRangeChecked(const char *key, const std::string &from,
                   const std::string &max, const std::string &over)
{
    const std::string name = std::string("\"") + key + "\":";
    Result<RunResult> at_max = decodeEdited(name + from, name + max);
    EXPECT_TRUE(at_max.isOk()) << at_max.status().toString();

    Result<RunResult> above = decodeEdited(name + from, name + over);
    ASSERT_FALSE(above.isOk()) << key << " " << over << " was accepted";
    EXPECT_EQ(above.status().code(), ErrorCode::CorruptData);
    EXPECT_NE(above.status().message().find(key), std::string::npos)
        << above.status().toString();
}

} // namespace

TEST(SweepJournalTest, FrameIndexAbove32BitsIsCorrupt)
{
    expectRangeChecked("frame_index", "1,", "4294967295,", "4294967296,");
}

TEST(SweepJournalTest, DramTimelineEntryAbove32BitsIsCorrupt)
{
    expectRangeChecked("dram_timeline", "[7]", "[4294967295]",
                       "[4294967296]");
}

TEST(SweepJournalTest, DramTimelineIntervalAbove32BitsIsCorrupt)
{
    expectRangeChecked("dram_timeline_interval", "5000,", "4294967295,",
                       "4294967296,");
}

TEST(SweepJournalTest, SupertileSizeAbove32BitsIsCorrupt)
{
    expectRangeChecked("supertile_size", "4,", "4294967295,",
                       "4294967296,");
}

TEST(SweepJournalTest, SkippedFrameAbove32BitsIsCorrupt)
{
    expectRangeChecked("skipped_frames", "[3]", "[4294967295]",
                       "[4294967296]");
}

TEST(SweepJournalTest, ReSkipFlagAboveOneIsCorrupt)
{
    expectRangeChecked("re_skipped_tiles", "[0,1]", "[1,1]", "[0,2]");
}

TEST(SweepJournalTest, AttemptsAbove32BitsIsCorrupt)
{
    const JournalPath journal("attempts");
    JournalRecord record;
    record.key = "CCS:256x128:f1@0:cfg:0000000000000000";
    record.ok = true;
    record.attempts = 1;
    record.result = narrowFieldsResult();
    const std::string line = sweepJournalLine(record);
    const std::string from = "\"attempts\":1,";
    const std::size_t at = line.find(from);
    ASSERT_NE(at, std::string::npos) << line;
    const auto load_with = [&](const std::string &attempts) {
        std::string edited = line;
        edited.replace(at, from.size(), "\"attempts\":" + attempts + ",");
        std::ofstream(journal.str()) << edited << "\n";
        return loadSweepJournal(journal.str());
    };

    Result<std::vector<JournalRecord>> at_max = load_with("4294967295");
    ASSERT_TRUE(at_max.isOk()) << at_max.status().toString();
    EXPECT_EQ(at_max->front().attempts, 4294967295u);

    Result<std::vector<JournalRecord>> above = load_with("4294967296");
    ASSERT_FALSE(above.isOk()) << "attempts 4294967296 was accepted";
    EXPECT_EQ(above.status().code(), ErrorCode::CorruptData);
    EXPECT_NE(above.status().message().find("attempts"), std::string::npos)
        << above.status().toString();
}

TEST(SweepJournalTest, JournalWritesLoadAndResumeSkipsCompletedJobs)
{
    const BenchmarkSpec &ccs = findBenchmark("CCS");
    const JournalPath journal("rt");

    SweepPolicy policy;
    policy.journalPath = journal.str();

    SweepRunner pool(2);
    SceneCache cache;
    SweepOutcome first =
        pool.runWithPolicy(smallJobs(ccs), policy, &cache);
    ASSERT_EQ(first.failureCount(), 0u);

    Result<std::vector<JournalRecord>> records =
        loadSweepJournal(journal.str());
    ASSERT_TRUE(records.isOk()) << records.status().toString();
    ASSERT_EQ(records->size(), 3u);
    for (const JournalRecord &rec : *records)
        EXPECT_TRUE(rec.ok);

    policy.resume = true;
    SweepOutcome second =
        pool.runWithPolicy(smallJobs(ccs), policy, &cache);
    EXPECT_EQ(second.replayedFromJournal, 3u);
    EXPECT_EQ(second.failureCount(), 0u);
    for (std::size_t i = 0; i < second.jobs.size(); ++i) {
        EXPECT_TRUE(second.jobs[i].fromJournal) << "job " << i;
        ASSERT_TRUE(second.jobs[i].result.isOk());
        EXPECT_EQ(runReportJson(*first.jobs[i].result),
                  runReportJson(*second.jobs[i].result));
    }
}

TEST(SweepJournalTest, MissingJournalLoadsEmpty)
{
    Result<std::vector<JournalRecord>> records =
        loadSweepJournal("/tmp/libra_journal_does_not_exist.jsonl");
    ASSERT_TRUE(records.isOk());
    EXPECT_TRUE(records->empty());
}

TEST(SweepJournalTest, KillAndResumeReportIsByteIdentical)
{
    const BenchmarkSpec &ccs = findBenchmark("CCS");
    const JournalPath journal("kill");

    // Reference: the same sweep, never interrupted, no journal.
    SweepRunner pool(1); // deterministic execution order for the kill
    SceneCache cache;
    const std::string reference = outcomeReport(
        smallJobs(ccs),
        pool.runWithPolicy(smallJobs(ccs), SweepPolicy{}, &cache));

    // The "process" dies during the second journal append: one job is
    // durable, the second append is torn, the third job never starts.
    SweepPolicy dying;
    dying.journalPath = journal.str();
    Result<FaultPlan> plan = FaultPlan::parse("kill@append=2");
    ASSERT_TRUE(plan.isOk());
    dying.faults = *plan;

    SweepOutcome crashed =
        pool.runWithPolicy(smallJobs(ccs), dying, &cache);
    EXPECT_TRUE(crashed.killed);
    EXPECT_GE(crashed.failureCount(), 1u);
    ASSERT_TRUE(crashed.jobs[0].result.isOk());
    EXPECT_TRUE(crashed.jobs[2].notRun);

    // The torn trailing line must not poison the load.
    Result<std::vector<JournalRecord>> records =
        loadSweepJournal(journal.str());
    ASSERT_TRUE(records.isOk()) << records.status().toString();
    ASSERT_EQ(records->size(), 1u);
    EXPECT_TRUE(records->front().ok);

    // Resume without faults: replay the survivor, run the rest, and
    // the final report is byte-identical to the uninterrupted run.
    SweepPolicy resuming;
    resuming.journalPath = journal.str();
    resuming.resume = true;
    SweepOutcome resumed =
        pool.runWithPolicy(smallJobs(ccs), resuming, &cache);
    EXPECT_FALSE(resumed.killed);
    EXPECT_EQ(resumed.replayedFromJournal, 1u);
    EXPECT_EQ(resumed.failureCount(), 0u);
    EXPECT_EQ(outcomeReport(smallJobs(ccs), resumed), reference);
}

TEST(SweepJournalTest, DuplicateEntriesForOneKeyReplayLastWriteWins)
{
    // A journal can hold several records for one job key: a re-run
    // sweep appends again (the journal is append-only), and a crashed
    // farm can leave a success followed by later re-executions. Replay
    // must be deterministic: the LAST ok record for a key wins,
    // regardless of what precedes it.
    const BenchmarkSpec &ccs = findBenchmark("CCS");
    const JournalPath journal("dup");

    SweepPolicy policy;
    policy.journalPath = journal.str();

    SweepRunner pool(1);
    SceneCache cache;
    SweepOutcome first =
        pool.runWithPolicy(smallJobs(ccs), policy, &cache);
    ASSERT_EQ(first.failureCount(), 0u);

    // Append a conflicting duplicate for job 0's key whose payload is
    // distinguishable from the genuine result.
    const std::string key0 = sweepJobKey(smallJobs(ccs)[0]);
    {
        Journal j;
        Status opened = j.open(journal.str(), Journal::Mode::Append);
        ASSERT_TRUE(opened.isOk()) << opened.toString();
        JournalRecord dup;
        dup.key = key0;
        dup.ok = true;
        dup.attempts = 7;
        dup.result = *first.jobs[0].result;
        dup.result.counters["journal.duplicate_marker"] = 1;
        ASSERT_TRUE(j.append(sweepJournalLine(dup)).isOk());
    }

    policy.resume = true;
    SweepOutcome resumed =
        pool.runWithPolicy(smallJobs(ccs), policy, &cache);
    EXPECT_EQ(resumed.replayedFromJournal, 3u);
    ASSERT_TRUE(resumed.jobs[0].result.isOk());
    EXPECT_TRUE(resumed.jobs[0].fromJournal);
    // The later record — marker and all — is what replays.
    EXPECT_EQ(resumed.jobs[0].result->counters.count(
                  "journal.duplicate_marker"),
              1u);
    // Unrelated keys are untouched by the duplicate.
    ASSERT_TRUE(resumed.jobs[1].result.isOk());
    EXPECT_EQ(runReportJson(*first.jobs[1].result),
              runReportJson(*resumed.jobs[1].result));
}

TEST(SweepJournalTest, FailureRecordAfterSuccessDoesNotMaskReplay)
{
    // Conflicting records of mixed outcome: a success followed by a
    // later failure record for the same key (e.g. a re-run attempt that
    // died). Failed records never mask a durable success — resume
    // replays the ok record and the final report is byte-identical to
    // an uninterrupted sweep.
    const BenchmarkSpec &ccs = findBenchmark("CCS");
    const JournalPath journal("conflict");

    SweepRunner pool(1);
    SceneCache cache;
    const std::string reference = outcomeReport(
        smallJobs(ccs),
        pool.runWithPolicy(smallJobs(ccs), SweepPolicy{}, &cache));

    SweepPolicy policy;
    policy.journalPath = journal.str();
    SweepOutcome first =
        pool.runWithPolicy(smallJobs(ccs), policy, &cache);
    ASSERT_EQ(first.failureCount(), 0u);

    {
        Journal j;
        Status opened = j.open(journal.str(), Journal::Mode::Append);
        ASSERT_TRUE(opened.isOk()) << opened.toString();
        JournalRecord failed;
        failed.key = sweepJobKey(smallJobs(ccs)[1]);
        failed.ok = false;
        failed.attempts = 1;
        failed.code = ErrorCode::Unavailable;
        failed.message = "fabricated post-success failure";
        ASSERT_TRUE(j.append(sweepJournalLine(failed)).isOk());
    }

    SweepPolicy resuming;
    resuming.journalPath = journal.str();
    resuming.resume = true;
    SweepOutcome resumed =
        pool.runWithPolicy(smallJobs(ccs), resuming, &cache);
    EXPECT_EQ(resumed.replayedFromJournal, 3u);
    EXPECT_EQ(resumed.failureCount(), 0u);
    EXPECT_EQ(outcomeReport(smallJobs(ccs), resumed), reference);
}

TEST(SweepJournalTest, DuplicateReplayIsByteIdenticalToCleanRun)
{
    // The acceptance bar for last-write-wins: duplicates of identical
    // payload (the common append-twice case) replay to a report byte-
    // identical to a sweep that never touched a journal.
    const BenchmarkSpec &ccs = findBenchmark("CCS");
    const JournalPath journal("dup2");

    SweepRunner pool(1);
    SceneCache cache;
    const std::string reference = outcomeReport(
        smallJobs(ccs),
        pool.runWithPolicy(smallJobs(ccs), SweepPolicy{}, &cache));

    SweepPolicy policy;
    policy.journalPath = journal.str();
    ASSERT_EQ(pool.runWithPolicy(smallJobs(ccs), policy, &cache)
                  .failureCount(),
              0u);
    // Second run appends a full second copy of every record.
    ASSERT_EQ(pool.runWithPolicy(smallJobs(ccs), policy, &cache)
                  .failureCount(),
              0u);
    Result<std::vector<JournalRecord>> records =
        loadSweepJournal(journal.str());
    ASSERT_TRUE(records.isOk());
    EXPECT_EQ(records->size(), 6u); // 3 jobs x 2 appends

    policy.resume = true;
    SweepOutcome resumed =
        pool.runWithPolicy(smallJobs(ccs), policy, &cache);
    EXPECT_EQ(resumed.replayedFromJournal, 3u);
    EXPECT_EQ(outcomeReport(smallJobs(ccs), resumed), reference);
}
