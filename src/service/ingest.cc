#include "service/ingest.hh"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "core/repro.hh"
#include "telemetry/jsonparse.hh"

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
    spec.run = campaign::baseIdentity(cfg);
    spec.run.name = telemetry::getStr(doc, "app");
    if (spec.run.name.empty()) {
        error = "job record without app";
        return false;
    }
    using telemetry::readUnsigned;
    if (!readUnsigned(doc, "id", spec.id, error) ||
        !readUnsigned(doc, "round", spec.round, error) ||
        !readUnsigned(doc, "seed", spec.run.seed, error) ||
        !readUnsigned(doc, "workers", spec.run.workers, error) ||
        !readUnsigned(doc, "scale", spec.run.scale, error))
        return false;
    if (const telemetry::JsonValue *v = doc.find("variant");
        v && v->isString() && !v->str.empty())
        spec.variant = v->str;
    if (const telemetry::JsonValue *v = doc.find("irq_scale")) {
        if (!v->isNumber()) {
            error = "irq_scale must be a number";
            return false;
        }
        spec.run.irqScale = v->asDouble();
    }
    if (const telemetry::JsonValue *v = doc.find("governor")) {
        if (v->type != telemetry::JsonValue::Type::Bool) {
            error = "governor must be true or false";
            return false;
        }
        spec.run.governor = v->boolean;
    }
    const core::IdentityError e = core::identityError(spec.run);
    error = e.key ? std::string(e.key) + " " + e.reason : e.reason;
    return !e;
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
