#include "service/ingest.hh"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "core/repro.hh"
#include "telemetry/jsonparse.hh"
#include "workloads/workloads.hh"

namespace txrace::service {

bool
readJobSpec(const telemetry::JsonValue &doc,
            const campaign::CampaignConfig &cfg, campaign::JobSpec &spec,
            std::string &error)
{
    if (!doc.isObject()) {
        error = "job record is not an object";
        return false;
    }
    spec = campaign::JobSpec{};
    spec.mode = cfg.mode;
    spec.workers = cfg.workers;
    spec.scale = cfg.scale;

    spec.app = telemetry::getStr(doc, "app");
    if (spec.app.empty()) {
        error = "job record without app";
        return false;
    }
    spec.id = telemetry::getU64(doc, "id");
    spec.round = uint32_t(telemetry::getU64(doc, "round"));
    if (const telemetry::JsonValue *v = doc.find("seed"))
        spec.seed = v->asU64();
    if (const telemetry::JsonValue *v = doc.find("variant");
        v && v->isString() && !v->str.empty())
        spec.variant = v->str;
    if (const telemetry::JsonValue *v = doc.find("workers"))
        spec.workers = uint32_t(v->asU64());
    if (const telemetry::JsonValue *v = doc.find("scale"))
        spec.scale = v->asU64();
    if (const telemetry::JsonValue *v = doc.find("irq_scale");
        v && v->isNumber())
        spec.interruptScale = v->asDouble();
    if (const std::string why = core::irqScaleError(spec.interruptScale);
        !why.empty()) {
        error = "irq_scale " + why;
        return false;
    }
    spec.governor = telemetry::getBool(doc, "governor");
    workloads::WorkloadParams params;
    params.nWorkers = spec.workers;
    params.scale = spec.scale;
    error = workloads::appParamsError(spec.app, params);
    return error.empty();
}

bool
parseJobLine(const std::string &line,
             const campaign::CampaignConfig &cfg,
             campaign::JobSpec &spec, std::string &error)
{
    telemetry::JsonValue doc;
    return telemetry::parseJson(line, doc, error) &&
           readJobSpec(doc, cfg, spec, error);
}

size_t
parseJobBatch(const std::string &text,
              const campaign::CampaignConfig &cfg,
              std::vector<campaign::JobSpec> &specs, std::string &error)
{
    std::istringstream in(text);
    std::string line;
    size_t lineNo = 0, refused = 0;
    error.clear();
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        campaign::JobSpec spec;
        std::string why;
        if (!parseJobLine(line, cfg, spec, why)) {
            error += (error.empty() ? "line " : "; line ") +
                     std::to_string(lineNo) + ": " + why;
            ++refused;
            continue;
        }
        specs.push_back(std::move(spec));
    }
    return refused;
}

std::vector<std::string>
listSpoolFiles(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    std::error_code ec;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file(ec))
            continue;
        std::string name = entry.path().filename().string();
        // Skip partially written files by convention: producers write
        // `name.tmp` and rename into place.
        if (name.size() > 4 &&
            name.compare(name.size() - 4, 4, ".tmp") == 0)
            continue;
        files.push_back(std::move(name));
    }
    std::sort(files.begin(), files.end());
    return files;
}

} // namespace txrace::service
