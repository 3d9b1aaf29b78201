#include "dse/checkpoint.h"

#include <cstdint>
#include <string_view>

#include "base/files.h"
#include "dse/entry_codec.h"

namespace dsa::dse {

namespace {

/** A checkpoint file's first bytes; the version follows as a count. */
constexpr std::string_view kMagic = "DSCK";
static_assert(kCheckpointVersion < 0x80, "the version is a one-byte count");

} // namespace

Status
saveCheckpoint(const std::vector<std::string> &workloadNames,
               const DseOptions &opts, const DseRunState &state,
               const std::string &path)
{
    std::string bytes(kMagic);
    bytes += static_cast<char>(kCheckpointVersion);
    bytes += encodeCheckpoint(workloadNames, opts, state);
    return writeFileAtomic(path, bytes, "checkpoint.tear");
}

Result<DseCheckpoint>
loadCheckpoint(const std::string &path)
{
    auto file = readFile(path);
    if (!file.ok())
        return Status(file.status().code(),
                      "checkpoint: " + file.status().message());
    const std::string what = "checkpoint '" + path + "': ";
    const std::string reads = " (this build reads version " +
                              std::to_string(kCheckpointVersion) + ")";
    std::string_view bytes = *file;
    if (bytes.starts_with('{'))
        return Status::invalidArgument(
            what + "a JSON checkpoint of version 3 or older" + reads);
    if (bytes.size() <= kMagic.size() && kMagic.starts_with(bytes))
        return Status::dataLoss(what + "truncated before its version");
    if (!bytes.starts_with(kMagic))
        return Status::invalidArgument(what + "not a DSE checkpoint");
    // Any version past 127 takes more than one byte.
    auto version = static_cast<uint8_t>(bytes[kMagic.size()]);
    if (version != kCheckpointVersion)
        return Status::invalidArgument(
            what + "unsupported checkpoint version " +
            (version < 0x80 ? std::to_string(version) : "above 127") + reads);
    auto ck = decodeCheckpoint(bytes.substr(kMagic.size() + 1));
    if (!ck.ok())
        return Status(ck.status().code(), what + ck.status().message());
    return ck;
}

} // namespace dsa::dse
