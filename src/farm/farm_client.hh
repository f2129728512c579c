/**
 * @file
 * Blocking sim-farm client: connect to a FarmServer socket, send one
 * request line, read back the response header and (for successful
 * simulate replies) the verbatim report bytes. One connection can carry
 * many sequential calls; libra-farm and the smoke tests are built on
 * this.
 */

#ifndef LIBRA_FARM_FARM_CLIENT_HH
#define LIBRA_FARM_FARM_CLIENT_HH

#include <string>

#include "common/status.hh"
#include "farm/farm_protocol.hh"

namespace libra
{

/** A simulate reply: parsed header plus the raw report bytes (exactly
 *  header.reportBytes of them; empty for non-simulate ops). */
struct FarmReply
{
    FarmResponse header;
    std::string report;
};

class FarmClient
{
  public:
    /** Connect to the server socket at @p socketPath. */
    static Result<FarmClient> connect(const std::string &socketPath);

    FarmClient() = default;
    ~FarmClient();

    FarmClient(FarmClient &&o) noexcept;
    FarmClient &operator=(FarmClient &&o) noexcept;
    FarmClient(const FarmClient &) = delete;
    FarmClient &operator=(const FarmClient &) = delete;

    /**
     * Send @p req and block for the reply. The transport can fail
     * (IoError, CorruptData on a bad header); an "error"/"rejected"
     * reply is NOT a transport failure — it comes back as an Ok reply
     * whose header carries status/code/message.
     */
    Result<FarmReply> call(const FarmRequest &req);

  private:
    Result<std::string> readLine();
    Status readExact(std::string &out, std::size_t n);

    int fd = -1;
    std::string buffer; //!< bytes received but not yet consumed
};

} // namespace libra

#endif // LIBRA_FARM_FARM_CLIENT_HH
