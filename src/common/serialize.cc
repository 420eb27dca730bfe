#include "common/serialize.hh"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace ann {

namespace {

/** `<path>.tmp.<pid>.<seq>`: unique per process and per writer. */
std::string
tempPathFor(const std::string &path)
{
    static std::atomic<std::uint64_t> seq{0};
    return path + ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(seq.fetch_add(1));
}

} // namespace

BinaryWriter::BinaryWriter(const std::string &path,
                           const std::string &magic,
                           std::uint32_t version)
    : path_(path), tmpPath_(tempPathFor(path)),
      out_(tmpPath_, std::ios::binary | std::ios::trunc)
{
    ANN_CHECK(out_.is_open(), "cannot open for writing: ", tmpPath_);
    writeString(magic);
    writePod(version);
}

BinaryWriter::~BinaryWriter()
{
    if (!closed_) {
        out_.close();
        std::remove(tmpPath_.c_str());
    }
}

void
BinaryWriter::writeString(const std::string &value)
{
    writePod<std::uint64_t>(value.size());
    writeBytes(value.data(), value.size());
}

void
BinaryWriter::close()
{
    out_.close(); // flushes; sets failbit if any write failed
    ANN_CHECK(!out_.fail(), "write failure on ", tmpPath_);
    const int fd = ::open(tmpPath_.c_str(), O_WRONLY | O_CLOEXEC);
    ANN_CHECK(fd >= 0, "cannot reopen ", tmpPath_, ": ",
              std::strerror(errno));
    const int synced = ::fsync(fd);
    const int sync_errno = errno;
    ::close(fd);
    ANN_CHECK(synced == 0, "fsync failed on ", tmpPath_, ": ",
              std::strerror(sync_errno));
    ANN_CHECK(std::rename(tmpPath_.c_str(), path_.c_str()) == 0,
              "cannot publish ", path_, ": ", std::strerror(errno));
    closed_ = true;
}

void
BinaryWriter::writeBytes(const void *data, std::size_t size)
{
    out_.write(static_cast<const char *>(data),
               static_cast<std::streamsize>(size));
}

BinaryReader::BinaryReader(const std::string &path,
                           const std::string &magic,
                           std::uint32_t version)
    : in_(path, std::ios::binary), path_(path)
{
    ANN_CHECK(in_.is_open(), "cannot open for reading: ", path);
    const std::string found_magic = readString();
    ANN_CHECK(found_magic == magic, "bad magic in ", path, ": expected '",
              magic, "' found '", found_magic, "'");
    const auto found_version = readPod<std::uint32_t>();
    ANN_CHECK(found_version == version, "bad version in ", path,
              ": expected ", version, " found ", found_version);
}

std::string
BinaryReader::readString()
{
    const auto size = readPod<std::uint64_t>();
    ANN_CHECK(size < (1ULL << 32), "unreasonable string size in ", path_);
    std::string value(size, '\0');
    readBytes(value.data(), size);
    return value;
}

void
BinaryReader::readBytes(void *data, std::size_t size)
{
    in_.read(static_cast<char *>(data),
             static_cast<std::streamsize>(size));
    ANN_CHECK(static_cast<std::size_t>(in_.gcount()) == size,
              "short read from ", path_);
}

bool
fileExists(const std::string &path)
{
    std::error_code ec;
    return std::filesystem::is_regular_file(path, ec);
}

void
ensureDirectory(const std::string &path)
{
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    ANN_CHECK(!ec, "cannot create directory ", path, ": ", ec.message());
}

} // namespace ann
