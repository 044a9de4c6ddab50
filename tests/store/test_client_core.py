"""The request core both daemon clients share.

:class:`~repro.store.client.DaemonClient` (blocking) and
:class:`~repro.store.client.AsyncDaemonClient` (asyncio) are thin I/O
shells over one request/retry state machine, so a decision the core
makes holds for both; each check here runs against both shells.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.store.client import (
    AsyncDaemonClient,
    DaemonClient,
    DaemonRequestError,
)
from repro.store.wire import MAX_FRAME_BYTES


def classify_sync(path: str, urls: list[str]) -> None:
    with DaemonClient(path) as client:
        client.classify(urls)


def classify_async(path: str, urls: list[str]) -> None:
    async def run() -> None:
        async with AsyncDaemonClient(path) as client:
            await client.aclassify(urls)

    asyncio.run(run())


@pytest.mark.parametrize(
    "classify", [classify_sync, classify_async], ids=["sync", "async"]
)
def test_oversized_request_fails_terminally_without_dialing(
    classify, sockpath
):
    """A request body over MAX_FRAME_BYTES can never be sent, so it is
    refused as ``frame-too-large`` before any dial: no connection, no
    backoff, no retry against a daemon that is healthy."""
    path = str(sockpath("accept-only.sock"))
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as listener:
        listener.bind(path)
        listener.listen(8)
        with pytest.raises(DaemonRequestError) as caught:
            classify(path, ["x" * MAX_FRAME_BYTES])
        assert caught.value.code == "frame-too-large"
        listener.setblocking(False)
        with pytest.raises(BlockingIOError):
            listener.accept()  # nothing ever connected
