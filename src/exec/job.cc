#include "exec/job.hh"

#include <memory>
#include <sstream>
#include <stdexcept>

#include "exec/settings.hh"
#include "system/system.hh"
#include "trace/workloads.hh"

namespace critmem::exec
{

const char *
toString(RunKind kind)
{
    switch (kind) {
      case RunKind::Parallel: return "parallel";
      case RunKind::Bundle:   return "bundle";
      case RunKind::Alone:    return "alone";
      case RunKind::Trace:    return "trace";
    }
    return "?";
}

const char *
toString(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok:             return "ok";
      case JobStatus::CheckViolation: return "check_violation";
      case JobStatus::TraceError:     return "trace_error";
      case JobStatus::Error:          return "error";
      case JobStatus::Timeout:        return "timeout";
      case JobStatus::Crashed:        return "crashed";
      case JobStatus::Oom:            return "oom";
      case JobStatus::Exit:           return "exit";
    }
    return "?";
}

bool
parseJobStatus(const std::string &name, JobStatus &out)
{
    for (const JobStatus status :
         {JobStatus::Ok, JobStatus::CheckViolation,
          JobStatus::TraceError, JobStatus::Error, JobStatus::Timeout,
          JobStatus::Crashed, JobStatus::Oom, JobStatus::Exit}) {
        if (name == toString(status)) {
            out = status;
            return true;
        }
    }
    return false;
}

std::string
reproCommand(const JobSpec &spec)
{
    const SystemConfig base = spec.multiprogPreset
        ? SystemConfig::multiprogDefault()
        : SystemConfig::parallelDefault();
    const SystemConfig &cfg = spec.cfg;

    std::ostringstream cmd;
    cmd << "critmem-sim";
    if (spec.multiprogPreset)
        cmd << " --preset multiprog";
    if (spec.kind == RunKind::Bundle) {
        cmd << " --bundle " << spec.workload;
    } else if (spec.kind == RunKind::Trace) {
        // Re-register the trace source, then select it by name.
        if (const TraceWorkload *wl =
                findTraceWorkload(spec.workload)) {
            cmd << " --trace " << wl->name << '=' << wl->path;
            if (wl->options.policy !=
                ingest::RecoveryPolicy::Fail) {
                cmd << " --trace-policy "
                    << ingest::toString(wl->options.policy)
                    << " --trace-skip-budget "
                    << wl->options.skipBudget;
            }
            if (wl->options.format != ingest::TraceFormat::Auto) {
                cmd << " --trace-format "
                    << ingest::toString(wl->options.format);
            }
        } else {
            cmd << " --trace " << spec.workload << "=<path>";
        }
    } else {
        cmd << " --app " << spec.workload;
    }
    if (spec.kind == RunKind::Alone)
        cmd << " --alone";
    cmd << " --instrs " << spec.quota;
    if (spec.warmup != kDefaultWarmup)
        cmd << " --warmup " << spec.warmup;
    cmd << settingFlags(cfg, base);
    // --inject implies --check, which is a run-mode flag.
    if (cfg.check.enabled && cfg.check.fault == FaultKind::None)
        cmd << " --check";
    return cmd.str();
}

RunResult
executeJob(const JobSpec &spec, std::string *statsJson,
           const std::atomic<bool> *cancel)
{
    // Validate up front and throw instead of letting the harness
    // fatal(): a malformed job must not take the campaign down.
    const ConfigErrors errors = spec.cfg.validate();
    if (!errors.empty()) {
        std::ostringstream msg;
        msg << "invalid config for job '" << spec.name << "':";
        for (const ConfigError &err : errors)
            msg << ' ' << err.field << ": " << err.message << ';';
        throw std::runtime_error(msg.str());
    }

    std::unique_ptr<System> sys;
    bool stopAtQuota = true;
    switch (spec.kind) {
      case RunKind::Parallel:
      case RunKind::Alone: {
        if (!haveApp(spec.workload)) {
            throw std::runtime_error("unknown application '" +
                                     spec.workload + "'");
        }
        const AppParams &app = appParams(spec.workload);
        if (spec.kind == RunKind::Parallel) {
            sys = std::make_unique<System>(spec.cfg, app);
        } else {
            std::vector<AppParams> perCore(spec.cfg.numCores);
            perCore[0] = app;
            sys = std::make_unique<System>(spec.cfg, perCore);
        }
        break;
      }
      case RunKind::Bundle: {
        const Bundle *bundle = findBundle(spec.workload);
        if (!bundle) {
            throw std::runtime_error("unknown bundle '" +
                                     spec.workload + "'");
        }
        if (spec.cfg.numCores != bundle->apps.size()) {
            throw std::runtime_error(
                "bundle job '" + spec.name + "' needs " +
                std::to_string(bundle->apps.size()) + " cores");
        }
        std::vector<AppParams> perCore;
        for (const std::string &name : bundle->apps)
            perCore.push_back(appParams(name));
        sys = std::make_unique<System>(spec.cfg, perCore);
        stopAtQuota = false;
        break;
      }
      case RunKind::Trace: {
        const TraceWorkload *wl = findTraceWorkload(spec.workload);
        if (!wl) {
            throw std::runtime_error("unknown trace workload '" +
                                     spec.workload + "'");
        }
        if (spec.cfg.numCores != wl->numCores) {
            throw std::runtime_error(
                "trace job '" + spec.name + "' needs " +
                std::to_string(wl->numCores) + " cores (config has " +
                std::to_string(spec.cfg.numCores) + ")");
        }
        sys = std::make_unique<System>(spec.cfg, *wl);
        break;
      }
    }
    if (!sys)
        throw std::runtime_error("unknown run kind");
    sys->setAbortFlag(cancel);

    const RunResult result =
        runSystem(*sys, spec.quota, spec.warmup, stopAtQuota);
    if (statsJson && spec.captureStats) {
        std::ostringstream os;
        sys->statsRoot().printJson(os);
        *statsJson = os.str();
    }
    return result;
}

std::uint64_t
deriveSeed(std::uint64_t campaignSeed, const std::string &jobName)
{
    // FNV-1a over the job name...
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : jobName) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    // ...then one splitmix64 step over the combination.
    std::uint64_t z = campaignSeed ^ hash;
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace critmem::exec
