"""Tests for the service skeleton (``repro.core.service``).

One handshake matrix covers every service and client pair: a client
dialing a service it does not talk to, a version mismatch on each
service, and a pre-v4 worker hello. The hello timeout is checked on each
service, a verb table naming no method fails at class creation, and a
listen port outside 0-65535 fails at construction.
"""

from __future__ import annotations

import socket

import pytest

from repro.core import service as service_module
from repro.core.fleet import FleetClient, FleetCoordinator
from repro.core.remote import WorkerServer, _WorkerConnection
from repro.core.service import (
    RemoteError,
    Service,
    parse_worker_address,
    recv_frame,
    send_frame,
)
from repro.core.storenet import RemoteStore, StoreServer

#: Each service kind, started on an ephemeral loopback port.
SERVICES = {
    "worker": lambda root: WorkerServer(port=0),
    "store": lambda root: StoreServer(port=0, root=root),
    "fleet": lambda root: FleetCoordinator(port=0),
}

#: Each client kind, dialing (and saying hello to) ``address`` at once.
CLIENTS = {
    "worker": lambda address: _WorkerConnection(parse_worker_address(address), 5.0),
    "store": lambda address: RemoteStore(address, connect_timeout=5.0)._connection(),
    "fleet": lambda address: FleetClient(address, connect_timeout=5.0)._connection(),
}

CLIENT_CLASSES = {"worker": _WorkerConnection, "store": RemoteStore, "fleet": FleetClient}

MISMATCHED = [
    (client, service) for client in CLIENTS for service in SERVICES if client != service
]


def _raw_hello(server: Service, offer: dict) -> tuple:
    with socket.create_connection(server.address, timeout=5) as sock:
        send_frame(sock, ("hello", offer))
        return recv_frame(sock)


def _offer(service: str | None, version: int, **fields) -> dict:
    """A hello offer; ``service=None`` leaves the marker out (pre-v4 worker)."""
    marker = {} if service is None else {"service": service}
    return {**marker, "protocol": version, **fields}


def _newer(client_class: type) -> type:
    """``client_class`` offering a protocol version no service speaks."""

    class Newer(client_class):
        protocol = 99

    return Newer


class TestHandshakeMatrix:
    @pytest.mark.parametrize("client, service", MISMATCHED)
    def test_wrong_service_is_refused_and_named(self, tmp_path, client, service):
        with SERVICES[service](tmp_path) as server:
            with pytest.raises(RemoteError) as info:
                CLIENTS[client](server.address_string)
        message = str(info.value)
        assert f"is not a {CLIENT_CLASSES[client].noun}" in message
        # Which service the client reached, and the fix.
        assert f"this is a repro-bench {server.noun}" in message
        assert "--store at stores" in message

    @pytest.mark.parametrize("kind", SERVICES)
    def test_version_mismatch_names_both_versions(self, tmp_path, kind):
        newer = _newer(CLIENT_CLASSES[kind])
        with SERVICES[kind](tmp_path) as server:
            reply = _raw_hello(server, _offer(kind, newer.protocol))
            with pytest.raises(RemoteError) as info:
                if kind == "worker":
                    newer(server.address, 5.0)
                else:
                    newer(server.address_string)._connection()
        assert reply[0] == "error"
        assert reply[2].startswith(f"{kind} protocol mismatch")
        # The client surfaces the service's diagnosis verbatim.
        message = str(info.value)
        assert "refused the handshake" in message
        assert reply[2] in message
        assert f"v{server.protocol}" in message
        assert "99" in message
        assert "upgrade the older side" in message

    def test_v3_worker_hello_is_told_to_upgrade(self):
        # A v3 client sent no service marker; it must hear "upgrade", not
        # "point at a different address".
        with WorkerServer(port=0) as server:
            kind, _seq, message = _raw_hello(
                server, _offer(None, 3, compress_min=None, store=None)
            )
        assert kind == "error"
        assert message.startswith("worker protocol mismatch")
        assert "v4" in message and "offered 3" in message
        assert "upgrade the older side" in message
        assert "point" not in message

    @pytest.mark.parametrize("kind", SERVICES)
    def test_hello_reply_describes_the_service(self, tmp_path, kind):
        with SERVICES[kind](tmp_path) as server:
            kind_, info = _raw_hello(server, _offer(kind, server.protocol))
        assert kind_ == "hello"
        assert info["service"] == kind
        assert info["protocol"] == server.protocol
        assert info["verbs"] == tuple(type(server).verbs)


class TestHelloTimeout:
    @pytest.mark.parametrize("kind", SERVICES)
    def test_silent_peer_is_disconnected(self, tmp_path, monkeypatch, kind):
        monkeypatch.setattr(service_module, "HELLO_TIMEOUT_S", 0.2)
        with SERVICES[kind](tmp_path) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                # Say nothing: the service must hang up on its own, well
                # before this socket's own 5 s timeout.
                assert sock.recv(1) == b""
            handlers = list(server._handlers)
            assert handlers
            for handler in handlers:
                handler.join(timeout=5)
                assert not handler.is_alive()


class TestVerbTable:
    def test_a_verb_naming_no_method_fails_at_class_creation(self):
        with pytest.raises(TypeError, match="_missing"):
            type("Broken", (Service,), {"verbs": {"get": (1, "_missing")}})


class TestListenPort:
    """A listen port outside 0-65535 fails when the service is built,
    before anything binds (``bind()`` would raise OverflowError)."""

    @pytest.mark.parametrize("port", [-1, 65536])
    def test_out_of_range_port_rejected(self, tmp_path, port):
        for make in (
            lambda: WorkerServer(port=port),
            lambda: StoreServer(port=port, root=tmp_path),
            lambda: FleetCoordinator(port=port),
        ):
            with pytest.raises(RemoteError, match="port must be in 0-65535"):
                make()
