# Build the buspower binary from source; the runtime stage carries only
# the static binary and CA certificates.
FROM golang:1.24-alpine AS build
WORKDIR /src
COPY go.mod ./
COPY . .
RUN CGO_ENABLED=0 go build -trimpath -ldflags='-s -w' -o /out/buspower ./cmd/buspower

FROM alpine:3.20
RUN apk add --no-cache ca-certificates curl && adduser -D -u 10001 buspower
USER buspower
COPY --from=build /out/buspower /usr/local/bin/buspower
# The trace cache defaults to the user cache dir; keep it on a volume so
# warmed simulations survive container restarts. Creating the directory
# as the runtime user first makes a fresh volume writable by it.
RUN mkdir -p /home/buspower/.cache/buspower
VOLUME ["/home/buspower/.cache/buspower"]
EXPOSE 8080
ENTRYPOINT ["buspower"]
CMD ["serve", "-addr", ":8080"]
