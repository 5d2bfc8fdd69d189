#include "exec/settings.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "sched/registry.hh"

namespace critmem::exec
{

namespace
{

[[noreturn]] void
bad(const std::string &what)
{
    throw std::runtime_error(what);
}

/** The whole of @p value as a T (unsigned integer or double). */
template <typename T>
T
parseNumber(const std::string &value)
{
    T parsed{};
    const char *end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
    if (ec == std::errc::result_out_of_range)
        bad("out-of-range number '" + value + "'");
    if (ec != std::errc() || ptr != end)
        bad("unparsable number '" + value + "'");
    return parsed;
}

template <typename T>
std::string
printNumber(T value)
{
    if constexpr (std::is_floating_point_v<T>) {
        // Shortest text that parses back to the same double.
        std::array<char, 32> buf{};
        const auto [ptr, ec] =
            std::to_chars(buf.data(), buf.data() + buf.size(), value);
        return std::string(buf.data(), ptr);
    } else {
        return std::to_string(value);
    }
}

/** The value of a bool literal, or nullopt. */
std::optional<bool>
boolLiteral(const std::string &text)
{
    if (text == "1" || text == "true" || text == "yes")
        return true;
    if (text == "0" || text == "false" || text == "no")
        return false;
    return std::nullopt;
}

bool
parseFlag(const std::string &value)
{
    const std::optional<bool> parsed = boolLiteral(value);
    if (!parsed)
        bad("expected a boolean, got '" + value + "'");
    return *parsed;
}

/*
 * Settings backed by one field, named by its member-pointer path from
 * SystemConfig (e.g. &SystemConfig::crit, &CritConfig::tableEntries).
 */

template <auto... Path>
constexpr Setting
number(const char *key, const char *arg, const char *help)
{
    return {key, arg, help,
            [](SystemConfig &cfg, const std::string &value) {
                auto &field = (cfg .* ... .* Path);
                field = parseNumber<std::remove_cvref_t<decltype(field)>>(
                    value);
            },
            [](const SystemConfig &cfg) {
                return printNumber((cfg .* ... .* Path));
            }};
}

template <auto... Path>
constexpr Setting
flag(const char *key, const char *help)
{
    return {key, nullptr, help,
            [](SystemConfig &cfg, const std::string &value) {
                (cfg .* ... .* Path) = parseFlag(value);
            },
            [](const SystemConfig &cfg) -> std::string {
                return (cfg .* ... .* Path) ? "1" : "0";
            }};
}

constexpr std::array<Setting, 21> kSettings = {{
    {"sched", "NAME", "scheduling algorithm (see --list-schedulers)",
     [](SystemConfig &cfg, const std::string &v) {
         const auto algo = findSchedAlgo(v);
         if (!algo)
             bad("unknown scheduler '" + v + "'");
         cfg.sched.algo = *algo;
     },
     [](const SystemConfig &cfg) -> std::string {
         return cliName(cfg.sched.algo);
     }},
    {"predictor", "NAME", "criticality predictor (see --list-schedulers)",
     [](SystemConfig &cfg, const std::string &v) {
         const auto pred = findCritPredictor(v);
         if (!pred)
             bad("unknown predictor '" + v + "'");
         cfg.crit.predictor = *pred;
     },
     [](const SystemConfig &cfg) -> std::string {
         return cliName(cfg.crit.predictor);
     }},
    number<&SystemConfig::crit, &CritConfig::tableEntries>(
        "entries", "N", "CBP/CLPT entries, 0 = unlimited"),
    number<&SystemConfig::crit, &CritConfig::resetInterval>(
        "reset", "N", "CBP reset interval, CPU cycles (0 = never)"),
    number<&SystemConfig::crit, &CritConfig::counterWidth>(
        "counter-width", "N",
        "CBP counter bits, saturating (0 = unbounded)"),
    number<&SystemConfig::crit, &CritConfig::probShift>(
        "prob-shift", "N",
        "probabilistic CBP updates at rate 2^-N (0 = exact)"),
    number<&SystemConfig::dram, &DramConfig::ranksPerChannel>(
        "ranks", "N", "ranks per channel"),
    number<&SystemConfig::dram, &DramConfig::channels>(
        "channels", "N", "DRAM channels"),
    {"speed", "NAME", "ddr3-1066 | ddr3-1600 | ddr3-2133",
     [](SystemConfig &cfg, const std::string &v) {
         const auto speed = findDramSpeed(v);
         if (!speed)
             bad("unknown speed grade '" + v + "'");
         const DramConfig fresh = DramConfig::preset(*speed);
         cfg.dram.t = fresh.t;
         cfg.dram.busMHz = fresh.busMHz;
         cfg.dram.speed = *speed;
     },
     [](const SystemConfig &cfg) -> std::string {
         return cliName(cfg.dram.speed);
     }},
    {"map", "KIND", "address interleaving: page | block",
     [](SystemConfig &cfg, const std::string &v) {
         if (v == "page")
             cfg.dram.mapKind = AddressMapKind::PageInterleave;
         else if (v == "block")
             cfg.dram.mapKind = AddressMapKind::BlockInterleave;
         else
             bad("unknown address map '" + v + "'");
     },
     [](const SystemConfig &cfg) -> std::string {
         return cfg.dram.mapKind == AddressMapKind::BlockInterleave
             ? "block"
             : "page";
     }},
    number<&SystemConfig::core, &CoreConfig::lqEntries>(
        "lq", "N", "load queue entries"),
    flag<&SystemConfig::prefetch, &PrefetchConfig::enabled>(
        "prefetch", "L2 stream prefetcher"),
    flag<&SystemConfig::dram, &DramConfig::closedPage>(
        "closed-page", "closed-page row policy"),
    {"split-wq", nullptr, "modern split write buffer",
     [](SystemConfig &cfg, const std::string &v) {
         cfg.dram.unifiedQueue = !parseFlag(v);
     },
     [](const SystemConfig &cfg) -> std::string {
         return cfg.dram.unifiedQueue ? "0" : "1";
     }},
    number<&SystemConfig::sched, &SchedConfig::morseMaxCommands>(
        "morse-cmds", "N",
        "MORSE ready commands evaluated per DRAM cycle"),
    number<&SystemConfig::numCores>(
        "cores", "N", "cores (a bundle or a trace sets its own)"),
    number<&SystemConfig::seed>("seed", "N", "simulation seed"),
    number<&SystemConfig::prewarmDirty>(
        "prewarm-dirty", "F", "share of prewarmed L2 lines that are dirty"),
    number<&SystemConfig::burstiness>(
        "burstiness", "F",
        "share of far accesses clustered into each loop's\n"
        "memory phase"),
    {"inject", "KIND",
     "inject faults (implies --check): drop-completion |\n"
     "early-cas | skip-refresh | starve-core | flip-crit |\n"
     "crash-worker | hog-memory (the last two fault the\n"
     "process itself, for critmem-sweep --isolate drills)",
     [](SystemConfig &cfg, const std::string &v) {
         const auto fault = findFaultKind(v);
         if (!fault)
             bad("unknown fault kind '" + v + "'");
         cfg.check.fault = *fault;
         cfg.check.enabled = true;
     },
     [](const SystemConfig &cfg) -> std::string {
         return toString(cfg.check.fault);
     }},
    number<&SystemConfig::check, &CheckConfig::faultPeriod>(
        "inject-period", "N", "mean opportunities between faults"),
}};

/** Apply @p setting, naming its key in any error. */
void
applyTo(SystemConfig &cfg, const Setting &setting,
        const std::string &value)
{
    try {
        setting.apply(cfg, value);
    } catch (const std::runtime_error &err) {
        bad(std::string(setting.key) + ": " + err.what());
    }
}

} // namespace

std::uint64_t
parseUint(const std::string &key, const std::string &value)
{
    try {
        return parseNumber<std::uint64_t>(value);
    } catch (const std::runtime_error &err) {
        bad(key + ": " + err.what());
    }
}

bool
parseBool(const std::string &key, const std::string &value)
{
    try {
        return parseFlag(value);
    } catch (const std::runtime_error &err) {
        bad(key + ": " + err.what());
    }
}

std::span<const Setting>
settingsTable()
{
    return kSettings;
}

const Setting *
findSetting(const std::string &key)
{
    for (const Setting &setting : kSettings) {
        if (key == setting.key)
            return &setting;
    }
    return nullptr;
}

void
applySetting(SystemConfig &cfg, const std::string &key,
             const std::string &value)
{
    const Setting *setting = findSetting(key);
    if (setting == nullptr)
        bad("unknown setting '" + key + "'");
    applyTo(cfg, *setting, value);
}

bool
applySettingFlag(SystemConfig &cfg, int argc, const char *const *argv,
                 int &i)
{
    const char *arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0)
        return false;
    const Setting *setting = findSetting(arg + 2);
    if (setting == nullptr)
        return false;
    const bool haveNext = i + 1 < argc;
    if (setting->arg == nullptr) {
        // A bool takes a value only when one follows; a bare flag
        // (the usual spelling, e.g. --prefetch) means 1.
        const bool valued = haveNext && boolLiteral(argv[i + 1]);
        applyTo(cfg, *setting, valued ? argv[++i] : "1");
        return true;
    }
    if (!haveNext)
        bad(std::string(arg) + " needs a value");
    applyTo(cfg, *setting, argv[++i]);
    return true;
}

std::string
settingFlags(const SystemConfig &cfg, const SystemConfig &preset)
{
    std::string flags;
    for (const Setting &setting : kSettings) {
        const std::string value = setting.print(cfg);
        if (value == setting.print(preset))
            continue;
        flags += " --";
        flags += setting.key;
        if (setting.arg != nullptr || value != "1")
            flags += " " + value;
    }
    return flags;
}

std::string
settingsUsage()
{
    std::string usage;
    for (const Setting &setting : kSettings) {
        std::string line = std::string("  --") + setting.key +
            (setting.arg != nullptr ? std::string(" ") + setting.arg
                                    : std::string(" [0|1]"));
        line.resize(std::max<std::size_t>(line.size() + 1, 21), ' ');
        // Continuation lines of a help text line up under its column.
        for (const char *c = setting.help; *c != '\0'; ++c) {
            if (*c == '\n')
                line += "\n" + std::string(21, ' ');
            else
                line += *c;
        }
        usage += line + "\n";
    }
    return usage;
}

} // namespace critmem::exec
