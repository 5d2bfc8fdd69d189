/**
 * @file
 * The settings table (exec/settings.hh): spec variant keys,
 * critmem-sim flags and repro lines share one parser and printer, so
 * every job's repro line parses back to the job's own config.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exec/job.hh"
#include "exec/settings.hh"
#include "exec/sweep.hh"
#include "fair/baseline_cache.hh"

using namespace critmem;

namespace
{

std::vector<std::string>
words(const std::string &line)
{
    std::istringstream in(line);
    std::vector<std::string> out;
    std::string word;
    while (in >> word)
        out.push_back(word);
    return out;
}

/**
 * Rebuild a config from a critmem-sim command line the way the CLI
 * does: the preset first, then every setting flag through the
 * library parser. Run-mode flags are skipped (with their value);
 * --check is the one that touches the config.
 */
SystemConfig
parseCommandLine(const std::string &line)
{
    const std::vector<std::string> args = words(line);
    std::vector<const char *> argv;
    for (const std::string &arg : args)
        argv.push_back(arg.c_str());
    const int argc = static_cast<int>(argv.size());

    bool multiprog = false;
    for (int i = 1; i + 1 < argc; ++i) {
        if (args[i] == "--preset")
            multiprog = args[i + 1] == "multiprog";
    }
    SystemConfig cfg = multiprog ? SystemConfig::multiprogDefault()
                                 : SystemConfig::parallelDefault();
    const std::set<std::string> valued = {
        "--preset", "--app",          "--bundle",
        "--trace",  "--trace-policy", "--trace-skip-budget",
        "--instrs", "--warmup",       "--trace-format"};
    for (int i = 1; i < argc; ++i) {
        if (exec::applySettingFlag(cfg, argc, argv.data(), i))
            continue;
        if (args[i] == "--check")
            cfg.check.enabled = true;
        else if (valued.count(args[i]) != 0)
            ++i;
        else if (args[i] != "--alone")
            ADD_FAILURE() << "unexpected flag " << args[i] << " in "
                          << line;
    }
    return cfg;
}

} // namespace

TEST(Settings, ReproLinesParseBackToTheJobConfig)
{
    namespace fs = std::filesystem;
    std::size_t jobs = 0;
    for (const auto &entry :
         fs::directory_iterator(fs::path(CRITMEM_REPO_ROOT) / "specs")) {
        if (entry.path().extension() != ".sweep")
            continue;
        const exec::SweepSpec spec =
            exec::parseSweepFile(entry.path().string());
        for (const exec::JobSpec &job : spec.expand()) {
            const std::string line = exec::reproCommand(job);
            const SystemConfig back = parseCommandLine(line);
            EXPECT_EQ(fair::configHash(back), fair::configHash(job.cfg))
                << entry.path().filename() << " " << job.name << ": "
                << line;
            EXPECT_EQ(back.check.enabled, job.cfg.check.enabled) << line;
            EXPECT_EQ(back.check.fault, job.cfg.check.fault) << line;
            EXPECT_EQ(back.check.faultPeriod, job.cfg.check.faultPeriod)
                << line;
            ++jobs;
        }
    }
    EXPECT_GT(jobs, 500u);
}

TEST(Settings, EveryKeyPrintsWhatItParses)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    // Move every key off its default so the printer is exercised on
    // values the presets never hold.
    const std::vector<std::pair<std::string, std::string>> values = {
        {"sched", "casras-crit"},  {"predictor", "maxstall"},
        {"entries", "256"},        {"reset", "100000"},
        {"counter-width", "8"},    {"prob-shift", "2"},
        {"ranks", "1"},            {"channels", "2"},
        {"speed", "ddr3-1600"},    {"map", "block"},
        {"lq", "48"},              {"prefetch", "1"},
        {"closed-page", "1"},      {"split-wq", "1"},
        {"morse-cmds", "6"},       {"cores", "4"},
        {"seed", "7"},             {"prewarm-dirty", "0.35"},
        {"burstiness", "0.1"},     {"inject", "early-cas"},
        {"inject-period", "3"}};
    ASSERT_EQ(values.size(), exec::settingsTable().size());
    for (const auto &[key, value] : values) {
        exec::applySetting(cfg, key, value);
        EXPECT_EQ(exec::findSetting(key)->print(cfg), value) << key;
    }
    const std::string flags =
        exec::settingFlags(cfg, SystemConfig::parallelDefault());
    const SystemConfig back =
        parseCommandLine("critmem-sim --app art" + flags);
    EXPECT_EQ(fair::configHash(back), fair::configHash(cfg)) << flags;
    EXPECT_NE(flags.find(" --prefetch --closed-page --split-wq "),
              std::string::npos)
        << "bools that are on print as bare flags: " << flags;
}

TEST(Settings, JunkValuesAreRefused)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    for (const char *junk : {"abc", "", "-1", "12abc", " 12", "+3",
                             "99999999999999999999"}) {
        EXPECT_THROW(exec::applySetting(cfg, "entries", junk),
                     std::runtime_error)
            << "'" << junk << "'";
    }
    EXPECT_THROW(exec::applySetting(cfg, "lq", "4294967296"),
                 std::runtime_error);
    EXPECT_THROW(exec::applySetting(cfg, "burstiness", "x"),
                 std::runtime_error);
    EXPECT_THROW(exec::applySetting(cfg, "map", "row"),
                 std::runtime_error);
    EXPECT_THROW(exec::applySetting(cfg, "prefetch", "2"),
                 std::runtime_error);
    EXPECT_THROW(exec::applySetting(cfg, "no-such-key", "1"),
                 std::runtime_error);
    EXPECT_EQ(fair::configHash(cfg),
              fair::configHash(SystemConfig::parallelDefault()));

    const char *lq[] = {"critmem-sim", "--lq", "x"};
    int i = 1;
    EXPECT_THROW(exec::applySettingFlag(cfg, 3, lq, i),
                 std::runtime_error);
    const char *missing[] = {"critmem-sim", "--entries"};
    i = 1;
    EXPECT_THROW(exec::applySettingFlag(cfg, 2, missing, i),
                 std::runtime_error);

    // A value that parses but lies outside its range is validate()'s.
    exec::applySetting(cfg, "prewarm-dirty", "1.5");
    ASSERT_FALSE(cfg.validate().empty());
    EXPECT_EQ(cfg.validate().front().field, "prewarmDirty");

    exec::SweepSpec spec;
    spec.workloads = {"art"};
    spec.variants.push_back({"bad", {{"entries", "abc"}}});
    EXPECT_THROW(spec.expand(), std::runtime_error);
}

TEST(Settings, BoolFlagsTakeAnOptionalValue)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    const char *argv[] = {"critmem-sim", "--prefetch", "--lq", "48",
                          "--split-wq", "0", "--closed-page", "yes"};
    const int argc = 8;
    for (int i = 1; i < argc; ++i)
        ASSERT_TRUE(exec::applySettingFlag(cfg, argc, argv, i));
    EXPECT_TRUE(cfg.prefetch.enabled);
    EXPECT_EQ(cfg.core.lqEntries, 48u);
    EXPECT_TRUE(cfg.dram.unifiedQueue);
    EXPECT_TRUE(cfg.dram.closedPage);

    const char *other[] = {"critmem-sim", "--app", "art"};
    int i = 1;
    EXPECT_FALSE(exec::applySettingFlag(cfg, 3, other, i));
    EXPECT_EQ(i, 1);
}
