/// Batch-runner suite: the resilient outer loop of docs/BATCH.md.
///
/// The load-bearing properties checked here:
///  * a batch over paper circuits reaches a terminal state for every job
///    and writes a deterministic manifest;
///  * a run killed partway (simulated by an injected journal-write
///    failure) resumes to a manifest byte-identical to an uninterrupted
///    run;
///  * a job that always crashes or hangs is quarantined after its retry
///    budget without taking the other jobs down (both in-process and in
///    --isolate subprocess mode);
///  * the crash-safe journal tolerates a torn trailing line.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "../src/batch/src/internal.hpp"
#include "helpers.hpp"
#include "soidom/base/fileio.hpp"
#include "soidom/base/strings.hpp"
#include "soidom/batch/flags.hpp"
#include "soidom/batch/runner.hpp"
#include "soidom/batch/signals.hpp"
#include "soidom/guard/fault.hpp"

namespace soidom {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/soidom_" +
         std::to_string(::getpid()) + "_" + name;
}

std::vector<BatchJob> registry_jobs(std::initializer_list<const char*> names) {
  std::vector<BatchJob> jobs;
  for (const char* name : names) jobs.push_back(BatchJob{name, ""});
  return jobs;
}

BatchOptions fast_options() {
  BatchOptions options;
  options.flow.verify_rounds = 2;
  options.retry.backoff_base_ms = 0;  // tests never sleep between retries
  return options;
}

// ---------------------------------------------------------------------------
// base/fileio: the crash-safety primitives everything above rests on.

TEST(Fileio, AtomicWriteCreatesAndOverwrites) {
  const std::string path = temp_path("atomic.txt");
  write_file_atomic(path, "first\n");
  EXPECT_EQ(read_file(path), "first\n");
  write_file_atomic(path, "second\n");
  EXPECT_EQ(read_file(path), "second\n");
}

TEST(Fileio, AtomicWriteLeavesNoTempBehind) {
  const std::string path = temp_path("clean.txt");
  write_file_atomic(path, "x");
  const std::string temp = path + ".tmp." + std::to_string(::getpid());
  std::ifstream probe(temp);
  EXPECT_FALSE(probe.good());
}

TEST(Fileio, AtomicWriteToBadDirectoryThrows) {
  EXPECT_THROW(write_file_atomic("/nonexistent/dir/f.txt", "x"), Error);
}

TEST(Fileio, AppendFileAppendsWholeLines) {
  const std::string path = temp_path("append.jsonl");
  {
    AppendFile file(path, /*durable=*/false);
    file.append_line("one");
    file.append_line("two");
  }
  {
    AppendFile file(path, /*durable=*/false);
    file.append_line("three");
  }
  EXPECT_EQ(read_file(path), "one\ntwo\nthree\n");
}

TEST(Fileio, ReadFileMissingThrows) {
  EXPECT_THROW((void)read_file("/nonexistent/file.txt"), Error);
}

TEST(Strings, JsonUnescapeInvertsEscape) {
  const std::string raw = "line\none\t\"quoted\" back\\slash \r end";
  EXPECT_EQ(json_unescape(json_escape(raw)), raw);
  EXPECT_EQ(json_unescape("\\u0041\\u000a"), "A\n");
  // Malformed escapes pass through verbatim rather than throwing.
  EXPECT_EQ(json_unescape("a\\q"), "a\\q");
}

// ---------------------------------------------------------------------------
// Degradation ladder.

TEST(Ladder, AttemptsEscalateAndSaturate) {
  EXPECT_EQ(ladder_step_for_attempt(1), LadderStep::kFull);
  EXPECT_EQ(ladder_step_for_attempt(2), LadderStep::kDropExact);
  EXPECT_EQ(ladder_step_for_attempt(3), LadderStep::kShrinkVerify);
  EXPECT_EQ(ladder_step_for_attempt(4), LadderStep::kShrinkCsa);
  EXPECT_EQ(ladder_step_for_attempt(5), LadderStep::kRelaxLimits);
  EXPECT_EQ(ladder_step_for_attempt(6), LadderStep::kRelaxLimits);
  EXPECT_EQ(ladder_step_for_attempt(9), LadderStep::kRelaxLimits);
}

TEST(Ladder, StepsAreCumulative) {
  FlowOptions base;
  base.exact_equivalence = true;
  base.verify_rounds = 16;
  base.mapper.max_width = 5;
  base.mapper.max_height = 8;
  base.csa_options.max_states = 4096;
  base.race_options.t_eval = 20.0;
  base.race_options.t_pre = 5.0;

  const FlowOptions full = apply_ladder(base, LadderStep::kFull);
  EXPECT_TRUE(full.exact_equivalence);
  EXPECT_EQ(full.verify_rounds, 16);

  const FlowOptions drop = apply_ladder(base, LadderStep::kDropExact);
  EXPECT_FALSE(drop.exact_equivalence);
  EXPECT_EQ(drop.verify_rounds, 16);

  const FlowOptions shrink = apply_ladder(base, LadderStep::kShrinkVerify);
  EXPECT_FALSE(shrink.exact_equivalence);
  EXPECT_EQ(shrink.verify_rounds, 2);
  EXPECT_EQ(shrink.mapper.max_width, 5);
  EXPECT_EQ(shrink.csa_options.max_states, 4096);

  const FlowOptions csa = apply_ladder(base, LadderStep::kShrinkCsa);
  EXPECT_FALSE(csa.exact_equivalence);
  EXPECT_EQ(csa.verify_rounds, 2);
  EXPECT_EQ(csa.csa_options.max_states, 256);
  EXPECT_EQ(csa.mapper.max_width, 5);
  EXPECT_EQ(csa.race_options.t_eval, 20.0);

  const FlowOptions relax = apply_ladder(base, LadderStep::kRelaxLimits);
  EXPECT_FALSE(relax.exact_equivalence);
  EXPECT_EQ(relax.verify_rounds, 2);
  EXPECT_EQ(relax.mapper.max_width, 10);
  EXPECT_EQ(relax.mapper.max_height, 16);
  EXPECT_EQ(relax.csa_options.max_states, 256);
  // No step touches the race windows a job's verdict is judged by.
  for (const FlowOptions& step : {full, drop, shrink, csa, relax}) {
    EXPECT_EQ(step.race_options.t_eval, 20.0);
    EXPECT_EQ(step.race_options.t_pre, 5.0);
  }
}

TEST(Ladder, RelaxLimitsCapsAt64) {
  FlowOptions base;
  base.mapper.max_width = 60;
  base.mapper.max_height = 64;
  const FlowOptions relaxed = apply_ladder(base, LadderStep::kRelaxLimits);
  EXPECT_EQ(relaxed.mapper.max_width, 64);
  EXPECT_EQ(relaxed.mapper.max_height, 64);
}

// ---------------------------------------------------------------------------
// Journal.

TEST(Journal, LoadMissingFileIsEmpty) {
  EXPECT_TRUE(load_journal(temp_path("never_written.jsonl")).empty());
}

TEST(Journal, LoadToleratesTornTrailingLineAndForeignRecords) {
  const std::string path = temp_path("torn.jsonl");
  std::ofstream(path)
      << R"({"type":"batch","jobs":2,"isolate":0,"max_attempts":3})" << "\n"
      << R"({"type":"future_record","x":1})" << "\n"
      << R"({"type":"done","job":"a","status":"ok","attempts":1,)"
      << R"("ladder":"full","code":"","stage":"","message":"",)"
      << R"("summary":"gates=3","lint_errors":0,"lint_warnings":1,"ms":1.5})"
      << "\n"
      << R"({"type":"done","job":"b","status":"quaran)";  // torn by SIGKILL
  const auto records = load_journal(path);
  ASSERT_EQ(records.size(), 1u);
  const JobRecord& a = records.at("a");
  EXPECT_EQ(a.status, JobStatus::kOk);
  EXPECT_EQ(a.attempts, 1);
  EXPECT_EQ(a.summary, "gates=3");
  EXPECT_EQ(a.lint_warnings, 1);
}

TEST(Journal, ChecksummedRecordsRoundTripAndCarrySchema) {
  const std::string path = temp_path("crc.jsonl");
  // Every field set, with tabs, newlines and quotes in the text: the
  // record codec (journal, manifest, isolate pipe, serve wire) must
  // carry them all unchanged.
  JobRecord done;
  done.job = "a";
  done.status = JobStatus::kOk;
  done.attempts = 2;
  done.ladder = "drop_exact";
  done.summary = "gates=7 T_total=42\tstructure=\"ok\"";
  done.lint_errors = 2;
  done.lint_warnings = 3;
  done.analyzer_errors = 4;
  done.analyzer_warnings = 5;
  done.prove_confirmed = 6;
  done.prove_refuted = 7;
  done.prove_unknown = 8;
  JobRecord failed;
  failed.job = "b";
  failed.status = JobStatus::kQuarantined;
  failed.attempts = 3;
  failed.ladder = "shrink_verify";
  failed.code = "deadline_exceeded";
  failed.stage = "batch_watchdog";
  failed.message = "job exceeded 10 ms\nkilled";
  failed.prove_confirmed = 9;
  {
    RunJournal journal(path, /*durable=*/false);
    journal.append_header(1, false, 3);
    AttemptRecord attempt;
    attempt.ok = true;
    journal.append_attempt("a", attempt);
    journal.append_done(done);
    journal.append_done(failed);
  }
  const JournalLoad loaded = load_journal_checked(path);
  EXPECT_EQ(loaded.schema, kJournalSchema);
  EXPECT_EQ(loaded.corrupt_records, 0);
  EXPECT_TRUE(loaded.warnings.empty());
  ASSERT_EQ(loaded.records.size(), 2u);
  EXPECT_EQ(loaded.records.at("a").summary, done.summary);
  EXPECT_EQ(job_record_fields_json(loaded.records.at("a")),
            job_record_fields_json(done));
  EXPECT_EQ(loaded.records.at("b").message, failed.message);
  EXPECT_EQ(job_record_fields_json(loaded.records.at("b")),
            job_record_fields_json(failed));
  // Every line written carries the integrity field.
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_NE(line.find("\"crc\":\""), std::string::npos) << line;
  }
  EXPECT_EQ(lines, 4);
}

TEST(Journal, CorruptRecordIsSkippedWithStructuredWarning) {
  const std::string path = temp_path("crc_corrupt.jsonl");
  JobRecord good;
  good.job = "good";
  good.status = JobStatus::kOk;
  JobRecord bad;
  bad.job = "bad";
  bad.status = JobStatus::kOk;
  {
    RunJournal journal(path, /*durable=*/false);
    journal.append_header(2, false, 3);
    journal.append_done(good);
    journal.append_done(bad);
  }
  // Flip one byte inside the "bad" record's payload (bit rot / torn
  // sector), leaving the line shape intact.
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }
  const std::size_t at = text.find("\"job\":\"bad\"");
  ASSERT_NE(at, std::string::npos);
  text[at + 8] = 'B';
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  const JournalLoad loaded = load_journal_checked(path);
  EXPECT_EQ(loaded.corrupt_records, 1);
  ASSERT_EQ(loaded.warnings.size(), 1u);
  EXPECT_EQ(loaded.warnings[0].stage, FlowStage::kBatchJournal);
  EXPECT_EQ(loaded.warnings[0].code, ErrorCode::kParseError);
  EXPECT_NE(loaded.warnings[0].message.find("CRC"), std::string::npos);
  // The damaged record is skipped, not half-parsed: only "good" loads.
  ASSERT_EQ(loaded.records.size(), 1u);
  EXPECT_EQ(loaded.records.count("good"), 1u);
}

TEST(Journal, TornUnchecksummedLineInSchema2JournalWarns) {
  const std::string path = temp_path("crc_torn.jsonl");
  JobRecord done;
  done.job = "a";
  done.status = JobStatus::kOk;
  {
    RunJournal journal(path, /*durable=*/false);
    journal.append_header(1, false, 3);
    journal.append_done(done);
  }
  {
    // A crash tore the next record before its crc field was written.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << R"({"type":"done","job":"b","status":"ok","atte)";
  }
  const JournalLoad loaded = load_journal_checked(path);
  EXPECT_EQ(loaded.schema, kJournalSchema);
  EXPECT_EQ(loaded.corrupt_records, 1);
  ASSERT_EQ(loaded.warnings.size(), 1u);
  EXPECT_NE(loaded.warnings[0].message.find("torn"), std::string::npos);
  ASSERT_EQ(loaded.records.size(), 1u);
  EXPECT_EQ(loaded.records.count("a"), 1u);
}

TEST(Journal, LegacyJournalWithoutChecksumsStillLoadsSilently) {
  // Pre-schema-2 journals have no header schema and no crc fields; they
  // must keep loading without warnings (old runs stay resumable).
  const std::string path = temp_path("crc_legacy.jsonl");
  std::ofstream(path)
      << R"({"type":"batch","jobs":1,"isolate":0,"max_attempts":3})" << "\n"
      << R"({"type":"done","job":"a","status":"ok","attempts":1,)"
      << R"("ladder":"full","code":"","stage":"","message":"",)"
      << R"("summary":"gates=3","lint_errors":0,"lint_warnings":0,"ms":1.0})"
      << "\n";
  const JournalLoad loaded = load_journal_checked(path);
  EXPECT_EQ(loaded.schema, 1);
  EXPECT_EQ(loaded.corrupt_records, 0);
  EXPECT_TRUE(loaded.warnings.empty());
  EXPECT_EQ(loaded.records.count("a"), 1u);
}

TEST(Journal, LastDoneRecordPerJobWins) {
  const std::string path = temp_path("dup.jsonl");
  JobRecord first;
  first.job = "a";
  first.status = JobStatus::kFailed;
  first.attempts = 1;
  JobRecord second = first;
  second.status = JobStatus::kOk;
  second.attempts = 2;
  {
    RunJournal journal(path, /*durable=*/false);
    journal.append_done(first);
    journal.append_done(second);
  }
  const auto records = load_journal(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records.at("a").status, JobStatus::kOk);
  EXPECT_EQ(records.at("a").attempts, 2);
}

TEST(Journal, ManifestIsSortedAndExcludesTimings) {
  std::map<std::string, JobRecord> records;
  JobRecord b;
  b.job = "bbb";
  b.status = JobStatus::kOk;
  b.ms = 123.456;  // must not appear
  JobRecord a;
  a.job = "aaa";
  a.status = JobStatus::kQuarantined;
  a.message = "hung";
  records[b.job] = b;
  records[a.job] = a;
  const std::string manifest = manifest_json(records);
  EXPECT_LT(manifest.find("aaa"), manifest.find("bbb"));
  EXPECT_EQ(manifest.find("123.456"), std::string::npos);
  EXPECT_EQ(manifest.find("\"ms\""), std::string::npos);
  EXPECT_NE(manifest.find("\"quarantined\""), std::string::npos);
  // Empty set still renders a valid empty array.
  EXPECT_NE(manifest_json({}).find("\"jobs\":[]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Wire format (isolate child -> parent): one job_record_fields_json line,
// read back by parse_job_record_fields.

TEST(Wire, GarbageLinesRejected) {
  JobRecord out;
  for (const char* line : {"",                                   // empty
                           R"("status":"ok","attempts":1)",      // no job
                           R"("job":"","status":"ok")",          // empty job
                           R"("job":"z4ml","attempts":1)",       // no status
                           R"("job":"z4ml","status":"done")",    // bad status
                           "OK\t1\t2\ts"}) {                     // old wire
    EXPECT_FALSE(parse_job_record_fields(line, &out)) << line;
  }
  ASSERT_TRUE(parse_job_record_fields(R"("job":"z4ml","status":"failed")",
                                      &out));
  EXPECT_EQ(out.job, "z4ml");
  EXPECT_EQ(out.status, JobStatus::kFailed);
}

TEST(Wire, MixSeedDistinguishesJobsAndAttempts) {
  using batch_detail::mix_seed;
  EXPECT_EQ(mix_seed(7, "z4ml", 1), mix_seed(7, "z4ml", 1));
  EXPECT_NE(mix_seed(7, "z4ml", 1), mix_seed(7, "z4ml", 2));
  EXPECT_NE(mix_seed(7, "z4ml", 1), mix_seed(7, "cm150", 1));
  EXPECT_NE(mix_seed(7, "z4ml", 1), mix_seed(8, "z4ml", 1));
  // Pinned: every --inject stream and backoff schedule derives from it.
  EXPECT_EQ(mix_seed(7, "z4ml", 1), 0xf64746d7db078763ull);
  EXPECT_EQ(mix_seed(0xB0FF, "c3540", 4), 0x9b0b62213a4514edull);
  EXPECT_EQ(mix_seed(0, "", 0), 0x552d3fb62b3c344full);
}

// ---------------------------------------------------------------------------
// run_batch happy paths + validation.

TEST(Batch, RunsRegistryJobsToOkAndWritesManifest) {
  BatchOptions options = fast_options();
  options.journal_path = temp_path("basic.jsonl");
  options.manifest_path = temp_path("basic.manifest.json");
  options.max_parallel = 2;
  const BatchResult result =
      run_batch(registry_jobs({"z4ml", "cm150"}), options);
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.ok, 2);
  EXPECT_EQ(result.failed, 0);
  EXPECT_EQ(result.quarantined, 0);
  for (const JobOutcome& out : result.jobs) {
    EXPECT_TRUE(out.terminal);
    EXPECT_EQ(out.record.status, JobStatus::kOk);
    EXPECT_EQ(out.record.attempts, 1);
    EXPECT_EQ(out.record.ladder, "full");
    EXPECT_FALSE(out.record.summary.empty());
  }
  const std::string manifest = read_file(options.manifest_path);
  EXPECT_NE(manifest.find("\"schema\":\"soidom-batch-manifest-1\""),
            std::string::npos);
  EXPECT_NE(manifest.find("\"total\":2"), std::string::npos);
  EXPECT_EQ(load_journal(options.journal_path).size(), 2u);
}

TEST(Batch, BlifFileJobsWork) {
  const std::string blif = temp_path("adder.blif");
  std::ofstream(blif) << ".model t\n.inputs a b c\n.outputs z\n"
                         ".names a b t1\n11 1\n"
                         ".names t1 c z\n1- 1\n-1 1\n.end\n";
  const BatchResult result =
      run_batch({BatchJob{blif, blif}}, fast_options());
  EXPECT_EQ(result.ok, 1);
  EXPECT_EQ(result.jobs[0].record.job, blif);
}

TEST(Batch, UnknownCircuitFailsWithoutBurningRetries) {
  BatchOptions options = fast_options();
  options.retry.max_attempts = 4;
  const BatchResult result =
      run_batch(registry_jobs({"no_such_circuit"}), options);
  EXPECT_EQ(result.failed, 1);
  ASSERT_TRUE(result.jobs[0].terminal);
  EXPECT_EQ(result.jobs[0].record.status, JobStatus::kFailed);
  EXPECT_EQ(result.jobs[0].record.attempts, 1);  // parse errors don't retry
  EXPECT_EQ(result.jobs[0].record.code, "parse_error");
}

/// A verification failure is a verdict: the job fails at the attempt
/// that found it, with no retry to a weaker ladder step.  Here z4ml's
/// race findings under a 0.5 evaluate window fail the race gate.
TEST(Batch, VerificationFailureIsFinal) {
  BatchOptions options = fast_options();
  options.retry.max_attempts = 5;
  options.flow.race = true;
  options.flow.race_options.t_eval = 0.5;
  options.flow.race_fail_on = LintSeverity::kWarning;
  const BatchResult result = run_batch(registry_jobs({"z4ml"}), options);
  EXPECT_EQ(result.failed, 1);
  const JobOutcome& out = result.jobs[0];
  ASSERT_TRUE(out.terminal);
  EXPECT_EQ(out.record.status, JobStatus::kFailed);
  EXPECT_EQ(out.record.attempts, 1);
  EXPECT_EQ(out.record.ladder, "full");
  EXPECT_EQ(out.record.code, "verification_failed");
  EXPECT_EQ(out.record.stage, "race");
  EXPECT_EQ(out.attempts.size(), 1u);
}

TEST(Batch, DuplicateJobNamesRejected) {
  EXPECT_THROW(
      (void)run_batch(registry_jobs({"z4ml", "z4ml"}), fast_options()), Error);
}

TEST(Batch, ResumeWithoutJournalRejected) {
  BatchOptions options = fast_options();
  options.resume = true;
  EXPECT_THROW((void)run_batch(registry_jobs({"z4ml"}), options), Error);
}

TEST(Batch, UnwritableJournalAbortsCleanly) {
  BatchOptions options = fast_options();
  options.journal_path = "/nonexistent/dir/run.jsonl";
  const BatchResult result = run_batch(registry_jobs({"z4ml"}), options);
  ASSERT_TRUE(result.aborted.has_value());
  EXPECT_FALSE(result.jobs[0].terminal);
}

/// One job at a time runs on the caller: the attempt sees the caller's
/// thread and no more threads than there were before run_batch.
TEST(Batch, SingleJobStartsNoThread) {
  BatchOptions options = fast_options();
  options.max_parallel = 1;
  const std::thread::id caller = std::this_thread::get_id();
  const std::ptrdiff_t before = testing::task_count();
  std::thread::id attempt_thread;
  std::ptrdiff_t during = -1;
  BatchHooks hooks;
  hooks.on_attempt_start = [&](const BatchJob&, int) {
    attempt_thread = std::this_thread::get_id();
    during = testing::task_count();
  };
  const BatchResult result =
      run_batch(registry_jobs({"z4ml"}), options, hooks);
  EXPECT_EQ(result.ok, 1);
  EXPECT_EQ(attempt_thread, caller);
  EXPECT_EQ(during, before);
}

// ---------------------------------------------------------------------------
// Quarantine: a misbehaving job must not take the batch down.

TEST(Batch, CrashingJobQuarantinedOthersSucceed) {
  BatchOptions options = fast_options();
  options.retry.max_attempts = 3;
  BatchHooks hooks;
  hooks.on_attempt_start = [](const BatchJob& job, int) {
    if (job.name == "cm150") throw std::runtime_error("simulated crash");
  };
  const BatchResult result =
      run_batch(registry_jobs({"z4ml", "cm150"}), options, hooks);
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.ok, 1);
  EXPECT_EQ(result.quarantined, 1);
  const JobOutcome& bad = result.jobs[1];
  EXPECT_EQ(bad.record.status, JobStatus::kQuarantined);
  EXPECT_EQ(bad.record.attempts, 3);  // full retry budget consumed
  EXPECT_EQ(bad.record.code, "internal");
  EXPECT_EQ(bad.attempts.size(), 3u);
  EXPECT_EQ(bad.attempts[0].ladder, "full");
  EXPECT_EQ(bad.attempts[1].ladder, "drop_exact");
  EXPECT_EQ(bad.attempts[2].ladder, "shrink_verify");
}

TEST(Batch, FlakyJobRecoversViaRetry) {
  BatchOptions options = fast_options();
  options.retry.max_attempts = 3;
  BatchHooks hooks;
  hooks.on_attempt_start = [](const BatchJob&, int attempt) {
    if (attempt == 1) throw std::runtime_error("first attempt flakes");
  };
  const BatchResult result =
      run_batch(registry_jobs({"z4ml"}), options, hooks);
  EXPECT_EQ(result.ok, 1);
  EXPECT_EQ(result.jobs[0].record.attempts, 2);
  EXPECT_EQ(result.jobs[0].record.ladder, "drop_exact");
}

TEST(Batch, WatchdogCancelsOverrunningJob) {
  BatchOptions options = fast_options();
  options.retry.max_attempts = 1;
  options.job_timeout_ms = 30;
  BatchHooks hooks;
  hooks.on_attempt_start = [](const BatchJob&, int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
  };
  const BatchResult result =
      run_batch(registry_jobs({"z4ml"}), options, hooks);
  EXPECT_EQ(result.quarantined, 1);
  ASSERT_TRUE(result.jobs[0].terminal);
  const std::string& code = result.jobs[0].record.code;
  EXPECT_TRUE(code == "deadline_exceeded" || code == "cancelled") << code;
}

// ---------------------------------------------------------------------------
// Subprocess isolation: crashes and hangs are contained.

TEST(BatchIsolate, HealthyJobSucceeds) {
  BatchOptions options = fast_options();
  options.isolate = true;
  const BatchResult result = run_batch(registry_jobs({"z4ml"}), options);
  EXPECT_EQ(result.ok, 1);
  EXPECT_FALSE(result.jobs[0].record.summary.empty());
}

TEST(BatchIsolate, CrashingChildIsQuarantinedNotFatal) {
  BatchOptions options = fast_options();
  options.isolate = true;
  options.retry.max_attempts = 2;
  BatchHooks hooks;
  hooks.on_attempt_start = [](const BatchJob& job, int) {
    // Runs inside the forked child in isolate mode: a real crash.
    if (job.name == "cm150") std::abort();
  };
  const BatchResult result =
      run_batch(registry_jobs({"z4ml", "cm150"}), options, hooks);
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.ok, 1);
  EXPECT_EQ(result.quarantined, 1);
  const JobOutcome& bad = result.jobs[1];
  EXPECT_EQ(bad.record.status, JobStatus::kQuarantined);
  EXPECT_EQ(bad.record.attempts, 2);
  EXPECT_NE(bad.record.message.find("signal"), std::string::npos)
      << bad.record.message;
}

TEST(BatchIsolate, HungChildIsKilledByTimeout) {
  BatchOptions options = fast_options();
  options.isolate = true;
  options.retry.max_attempts = 1;
  options.job_timeout_ms = 80;
  BatchHooks hooks;
  hooks.on_attempt_start = [](const BatchJob&, int) {
    std::this_thread::sleep_for(std::chrono::seconds(30));  // runaway child
  };
  const auto start = std::chrono::steady_clock::now();
  const BatchResult result =
      run_batch(registry_jobs({"z4ml"}), options, hooks);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  EXPECT_EQ(result.quarantined, 1);
  EXPECT_EQ(result.jobs[0].record.code, "deadline_exceeded");
  EXPECT_EQ(result.jobs[0].record.stage, "batch_watchdog");
}

// Analyzer findings (CSA + race) must survive both the child->parent
// wire in isolate mode and the journal text in resume mode: however a
// job record was produced, the merged manifest is byte-identical.
TEST(BatchIsolate, AnalyzerCountsSurviveIsolationAndResume) {
  const std::vector<BatchJob> jobs = registry_jobs({"z4ml", "decod"});

  BatchOptions base = fast_options();
  base.flow.csa = true;
  base.flow.race = true;
  // Waive the one error-severity CSA rule (these circuits trip it at the
  // default margin) so the jobs stay green; a tight evaluate window then
  // makes the race analyzer deterministically emit warnings that must
  // ride the journal and the isolate wire.
  base.flow.csa_options.waivers = {"csa.pbe-discharge"};
  base.flow.race_options.t_eval = 0.5;

  // Reference: in-process, uninterrupted.
  BatchOptions inproc = base;
  inproc.journal_path = temp_path("an_ref.jsonl");
  inproc.manifest_path = temp_path("an_ref.manifest.json");
  const BatchResult direct = run_batch(jobs, inproc);
  ASSERT_TRUE(direct.complete());
  ASSERT_EQ(direct.ok, 2);
  int findings = 0;
  for (const JobOutcome& out : direct.jobs) {
    findings += out.record.analyzer_errors + out.record.analyzer_warnings;
  }
  ASSERT_GT(findings, 0) << "fixture must actually produce analyzer findings";

  // Same jobs through forked children: counts cross the wire intact.
  BatchOptions isolated = base;
  isolated.isolate = true;
  isolated.journal_path = temp_path("an_iso.jsonl");
  isolated.manifest_path = temp_path("an_iso.manifest.json");
  const BatchResult iso = run_batch(jobs, isolated);
  ASSERT_TRUE(iso.complete());
  ASSERT_EQ(iso.ok, 2);
  EXPECT_EQ(read_file(isolated.manifest_path),
            read_file(inproc.manifest_path));

  // Resume: z4ml's record is reloaded from journal text, decod runs
  // fresh, and the merged manifest still matches byte for byte.
  BatchOptions partial = base;
  partial.isolate = true;
  partial.journal_path = temp_path("an_resume.jsonl");
  partial.manifest_path = temp_path("an_resume.partial.json");
  ASSERT_EQ(run_batch(registry_jobs({"z4ml"}), partial).ok, 1);
  partial.resume = true;
  partial.manifest_path = temp_path("an_resume.manifest.json");
  const BatchResult resumed = run_batch(jobs, partial);
  ASSERT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.resumed, 1);
  EXPECT_EQ(read_file(partial.manifest_path),
            read_file(inproc.manifest_path));
}

// ---------------------------------------------------------------------------
// The acceptance property: kill partway + resume == uninterrupted run,
// byte for byte.

#if defined(SOIDOM_FAULT_INJECTION)
TEST(BatchResume, InterruptedRunResumesToByteIdenticalManifest) {
  const std::vector<BatchJob> jobs =
      registry_jobs({"z4ml", "cm150", "decod"});

  // Reference: one uninterrupted run.
  BatchOptions reference = fast_options();
  reference.journal_path = temp_path("ref.jsonl");
  reference.manifest_path = temp_path("ref.manifest.json");
  const BatchResult full_run = run_batch(jobs, reference);
  ASSERT_TRUE(full_run.complete());
  ASSERT_EQ(full_run.ok, 3);

  // Interrupted: the 4th journal append (header, then z4ml's attempt and
  // done records, then cm150's attempt record) fails, which aborts the
  // batch exactly as a crash/kill at that instant would — some jobs
  // terminal, the rest unrecorded.
  BatchOptions interrupted = fast_options();
  interrupted.journal_path = temp_path("resume.jsonl");
  interrupted.manifest_path = temp_path("resume.manifest.json");
  {
    FaultInjector injector =
        FaultInjector::fail_at(FlowStage::kBatchJournal, 4);
    FaultScope scope(injector);
    const BatchResult aborted = run_batch(jobs, interrupted);
    ASSERT_TRUE(aborted.aborted.has_value());
    EXPECT_EQ(aborted.aborted->code, ErrorCode::kFaultInjected);
    EXPECT_EQ(aborted.aborted->stage, FlowStage::kBatchJournal);
    EXPECT_TRUE(aborted.jobs[0].terminal);   // z4ml completed
    EXPECT_FALSE(aborted.jobs[1].terminal);  // cm150 lost its record
    EXPECT_FALSE(aborted.jobs[2].terminal);  // decod never ran
    std::ifstream manifest(interrupted.manifest_path);
    EXPECT_FALSE(manifest.good()) << "aborted run must not write a manifest";
  }

  // Resume: completed jobs are skipped, the rest rerun.
  interrupted.resume = true;
  const BatchResult resumed = run_batch(jobs, interrupted);
  ASSERT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.resumed, 1);
  EXPECT_EQ(resumed.ok, 3);

  EXPECT_EQ(read_file(interrupted.manifest_path),
            read_file(reference.manifest_path));
}
#endif  // SOIDOM_FAULT_INJECTION

// ---------------------------------------------------------------------------
// Signals.

TEST(Signals, ExitCodesFollowConvention) {
  EXPECT_EQ(signal_exit_code(SIGINT), 130);
  EXPECT_EQ(signal_exit_code(SIGTERM), 143);
  EXPECT_EQ(signal_exit_code(0), 1);
}

// ---------------------------------------------------------------------------
// The shared CLI flag parser (flags.hpp).

/// Argv entries applied in order, and the fields they must have set.
template <typename Options>
struct FlagCase {
  std::vector<const char*> args;
  std::function<bool(const Options&)> applied;
};

TEST(Flags, FlowFlagsSetTheirFields) {
  using F = const FlowOptions&;
  const std::vector<FlagCase<FlowOptions>> cases = {
      {{"--flow=domino"}, [](F f) { return f.variant == FlowVariant::kDominoMap; }},
      {{"--flow=rs"}, [](F f) { return f.variant == FlowVariant::kRsMap; }},
      {{"--flow=rs", "--flow=soi"},
       [](F f) { return f.variant == FlowVariant::kSoiDominoMap; }},
      {{"--objective=depth"},
       [](F f) { return f.mapper.objective == CostObjective::kDepth; }},
      {{"--objective=depth", "--objective=area"},
       [](F f) { return f.mapper.objective == CostObjective::kArea; }},
      {{"--wmax=3"}, [](F f) { return f.mapper.max_width == 3; }},
      {{"--hmax=7"}, [](F f) { return f.mapper.max_height == 7; }},
      {{"--k=2.5"}, [](F f) { return f.mapper.clock_weight == 2.5; }},
      {{"--minimize"}, [](F f) { return f.decompose.minimize_covers; }},
      {{"--seq-aware"}, [](F f) { return f.sequence_aware; }},
      {{"--exact"}, [](F f) { return f.exact_equivalence; }},
      {{"--verify=5"}, [](F f) { return f.verify_rounds == 5; }},
      {{"--lint-fail-on=warning"},
       [](F f) { return f.lint_fail_on == LintSeverity::kWarning; }},
      {{"--lint-fail-on=info", "--lint-fail-on=error"},
       [](F f) { return f.lint_fail_on == LintSeverity::kError; }},
      {{"--csa"}, [](F f) { return f.csa; }},
      {{"--csa-margin=0.1"},
       [](F f) { return f.csa && f.csa_options.margin == 0.1; }},
      {{"--race"}, [](F f) { return f.race; }},
      {{"--race-fail-on=info"},
       [](F f) { return f.race && f.race_fail_on == LintSeverity::kInfo; }},
      {{"--race-phases=2"},
       [](F f) { return f.race && f.race_options.num_phases == 2; }},
      {{"--race-teval=1.5"},
       [](F f) { return f.race && f.race_options.t_eval == 1.5; }},
      {{"--race-tpre=0.75"},
       [](F f) { return f.race && f.race_options.t_pre == 0.75; }},
      {{"--race-skew=0.1"},
       [](F f) { return f.race && f.race_options.skew == 0.1; }},
      {{"--race-margin=0.2"},
       [](F f) { return f.race && f.race_options.margin == 0.2; }},
      {{"--prove"}, [](F f) { return f.prove; }},
      {{"--prove-budget=4096"},
       [](F f) { return f.prove && f.prove_options.node_budget == 4096u; }},
      {{"--prove-fail-on=warning"},
       [](F f) { return f.prove && f.prove_fail_on == LintSeverity::kWarning; }},
      {{"--prove-strict"},
       [](F f) { return f.prove && f.prove_options.fail_on_budget; }},
  };
  for (const auto& c : cases) {
    FlowOptions flow;
    EXPECT_FALSE(flow.csa || flow.race || flow.prove);
    for (const char* arg : c.args) {
      EXPECT_TRUE(parse_flow_flag(Flag(arg), flow)) << arg;
    }
    EXPECT_TRUE(c.applied(flow)) << c.args.back();
    // The same entries reach the flow through the job and run groups.
    BatchOptions batch;
    for (const char* arg : c.args) {
      EXPECT_TRUE(parse_batch_run_flag(Flag(arg), batch)) << arg;
    }
    EXPECT_TRUE(c.applied(batch.flow)) << c.args.back();
  }
}

TEST(Flags, JobAndRunFlagsSetTheirFields) {
  using B = const BatchOptions&;
  const std::vector<FlagCase<BatchOptions>> job_cases = {
      {{"--timeout-ms=250"}, [](B b) { return b.job_timeout_ms == 250; }},
      {{"--attempts=5"}, [](B b) { return b.retry.max_attempts == 5; }},
      {{"--backoff-ms=10"}, [](B b) { return b.retry.backoff_base_ms == 10; }},
      {{"--inject=1/6@7"},
       [](B b) {
         return b.fault.numer == 1 && b.fault.denom == 6 && b.fault.seed == 7;
       }},
      {{"--wmax=3"}, [](B b) { return b.flow.mapper.max_width == 3; }},
  };
  const std::vector<FlagCase<BatchOptions>> run_cases = {
      {{"--jobs=4"}, [](B b) { return b.max_parallel == 4; }},
      {{"--isolate"}, [](B b) { return b.isolate; }},
      {{"--journal=j.jsonl"}, [](B b) { return b.journal_path == "j.jsonl"; }},
      {{"--manifest=m.json"}, [](B b) { return b.manifest_path == "m.json"; }},
      {{"--resume"}, [](B b) { return b.resume; }},
  };
  for (const auto& c : job_cases) {
    BatchOptions job;
    BatchOptions run;
    for (const char* arg : c.args) {
      EXPECT_TRUE(parse_job_flag(Flag(arg), job)) << arg;
      EXPECT_TRUE(parse_batch_run_flag(Flag(arg), run)) << arg;
    }
    EXPECT_TRUE(c.applied(job)) << c.args.back();
    EXPECT_TRUE(c.applied(run)) << c.args.back();
  }
  for (const auto& c : run_cases) {
    BatchOptions run;
    for (const char* arg : c.args) {
      EXPECT_TRUE(parse_batch_run_flag(Flag(arg), run)) << arg;
      // The groups nested in the run flags decline them.
      BatchOptions job;
      EXPECT_FALSE(parse_job_flag(Flag(arg), job)) << arg;
      EXPECT_FALSE(parse_flow_flag(Flag(arg), job.flow)) << arg;
    }
    EXPECT_TRUE(c.applied(run)) << c.args.back();
  }
}

TEST(Flags, MalformedValuesAreErrors) {
  const std::pair<const char*, const char*> cases[] = {
      {"--wmax=big", "--wmax needs an integer, got 'big'"},
      {"--csa-margin=high", "--csa-margin needs a number, got 'high'"},
      {"--prove-budget=-1",
       "--prove-budget needs a non-negative integer, got '-1'"},
      {"--timeout-ms=-5", "--timeout-ms needs a non-negative integer, got '-5'"},
      {"--inject=1/0@3", "--inject needs N/D@SEED with D > 0, got '1/0@3'"},
      {"--flow=xyz", "--flow needs domino|rs|soi, got 'xyz'"},
      {"--lint-fail-on=loud", "--lint-fail-on needs error|warning|info, got 'loud'"},
      {"--jobs=", "--jobs needs an integer, got ''"},
  };
  for (const auto& [arg, message] : cases) {
    BatchOptions batch;
    try {
      parse_batch_run_flag(Flag(arg), batch);
      ADD_FAILURE() << arg << " was accepted";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), message);
    }
  }
}

TEST(Flags, OtherEntriesAreNotConsumed) {
  for (const char* arg : {"--bogus", "--dump", "--tables", "circuit.blif", "-",
                          "--csa=1", "--wmax", "--batch=z4ml"}) {
    BatchOptions batch;
    EXPECT_FALSE(parse_flow_flag(Flag(arg), batch.flow)) << arg;
    EXPECT_FALSE(parse_job_flag(Flag(arg), batch)) << arg;
    EXPECT_FALSE(parse_batch_run_flag(Flag(arg), batch)) << arg;
    EXPECT_FALSE(batch.flow.csa) << arg;
  }
  const Flag flag("--journal=a=b");
  EXPECT_TRUE(flag.has("--journal"));
  EXPECT_FALSE(flag.is("--journal"));
  EXPECT_EQ(flag.value(), "a=b");
}

TEST(Signals, ReceivedSignalStopsSchedulingAndSkipsManifest) {
  install_signal_cancel();
  ::raise(SIGTERM);
  ASSERT_EQ(signal_received(), SIGTERM);

  BatchOptions options = fast_options();
  options.journal_path = temp_path("sig.jsonl");
  options.manifest_path = temp_path("sig.manifest.json");
  const BatchResult result = run_batch(registry_jobs({"z4ml"}), options);
  EXPECT_EQ(result.interrupted_by_signal, SIGTERM);
  EXPECT_FALSE(result.jobs[0].terminal);
  std::ifstream manifest(options.manifest_path);
  EXPECT_FALSE(manifest.good());

  reset_signal_state_for_testing();
  ASSERT_EQ(signal_received(), 0);
}

}  // namespace
}  // namespace soidom
