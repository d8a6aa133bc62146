/// \file pgpubctl.cc
/// Minimal client for pgpubd's text control endpoint: joins its
/// arguments into one command line, sends it to 127.0.0.1:PORT, prints
/// the reply. Exit 0 when the reply is non-empty and not an "err ..."
/// line, 1 otherwise.
///
/// Usage: pgpubctl PORT COMMAND [ARG...]
///   pgpubctl 7070 HEALTH
///   pgpubctl 7070 PUBLISH census 42
///   pgpubctl 7070 BURST clinic 500

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "common/string_util.h"

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: %s PORT COMMAND [ARG...]\n", argv[0]);
    return 2;
  }
  const pgpub::Result<int64_t> port = pgpub::ParseInt64(argv[1]);
  if (!port.ok() || *port <= 0 || *port > 65535) {
    std::fprintf(stderr, "pgpubctl: bad port '%s'\n", argv[1]);
    return 2;
  }
  std::string line;
  for (int i = 2; i < argc; ++i) {
    if (!line.empty()) line += ' ';
    line += argv[i];
  }
  line += '\n';

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("pgpubctl: socket");
    return 1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(*port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    std::perror("pgpubctl: connect");
    ::close(fd);
    return 1;
  }
  size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n =
        ::send(fd, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      std::perror("pgpubctl: send");
      ::close(fd);
      return 1;
    }
    sent += static_cast<size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);

  std::string reply;
  char buf[1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    reply.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  std::fputs(reply.c_str(), stdout);
  if (reply.empty()) {
    std::fprintf(stderr, "pgpubctl: empty reply\n");
    return 1;
  }
  return reply.compare(0, 4, "err ") == 0 ? 1 : 0;
}
