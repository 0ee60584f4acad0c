"""CLI for the symbolic-execution service: ``python -m repro.service``.

Subcommands::

    serve     start the daemon on a Unix socket
    run       submit one session and stream its events as JSON lines
    resume    continue a checkpointed campaign (daemon-local checkpoint)
    stats     print service metrics + shared-pool counters
    ping      liveness check
    shutdown  stop the daemon

Example::

    python -m repro.service serve --socket /tmp/repro.sock --workers 2 &
    python -m repro.service run --socket /tmp/repro.sock \\
        --language pylite --file target.py --time-budget 5
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.api.language import languages
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import ChefService, ServiceConfig


def _language_help() -> str:
    """Registry-derived help text: new languages show up automatically."""
    return "registered guest language name (one of: %s)" % ", ".join(languages())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="symbolic-execution service daemon and client",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="start the daemon")
    serve.add_argument("--socket", required=True, help="Unix socket path")
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--max-sessions", type=int, default=8)
    serve.add_argument("--max-time-budget", type=float, default=60.0)
    serve.add_argument("--max-ll-paths", type=int, default=10_000)
    # The daemon keeps no on-disk cache any more; the committed benchmark
    # harness still passes this flag, and the next benchmark change
    # stops passing it and removes it.
    serve.add_argument("--cache-dir", default=None, help=argparse.SUPPRESS)
    serve.add_argument("--max-solver-deadline", type=float, default=None,
                       help="per-query solver deadline ceiling, seconds "
                            "(wedged queries degrade to unknown)")
    serve.add_argument("--trace", action="store_true",
                       help="record per-session Chrome-trace lanes")

    run = sub.add_parser("run", help="submit one session, stream events")
    run.add_argument("--socket", required=True)
    target = run.add_mutually_exclusive_group(required=True)
    target.add_argument("--clay-file", help="Clay guest source file")
    target.add_argument("--file", help="guest source file (with --language)")
    target.add_argument("--source", help="inline guest source (with --language)")
    run.add_argument("--language", help=_language_help())
    run.add_argument("--strategy", default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--time-budget", type=float, default=None)
    run.add_argument("--max-ll-paths", type=int, default=None)
    run.add_argument("--max-hl-paths", type=int, default=None)
    run.add_argument("--solver-deadline", type=float, default=None,
                     help="per-query solver deadline, seconds")
    run.add_argument("--checkpoint-dir", default=None,
                     help="daemon-local checkpoint directory for this run")
    run.add_argument("--quiet", action="store_true",
                     help="print only the final RunFinished result")

    resume = sub.add_parser(
        "resume", help="continue a checkpointed campaign, stream events"
    )
    resume.add_argument("--socket", required=True)
    resume.add_argument("--checkpoint", required=True,
                        help="daemon-local checkpoint directory or file")
    resume.add_argument("--time-budget", type=float, default=None)
    resume.add_argument("--max-ll-paths", type=int, default=None)
    resume.add_argument("--quiet", action="store_true",
                        help="print only the final RunFinished result")

    for name, help_text in (
        ("stats", "print service metrics"),
        ("ping", "liveness check"),
        ("shutdown", "stop the daemon"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--socket", required=True)
    for streaming in (run, resume):
        streaming.add_argument(
            "--retries", type=int, default=0,
            help="transient-failure retries with exponential backoff",
        )
        streaming.add_argument(
            "--timeout", type=float, default=300.0,
            help="per-socket-operation timeout, seconds",
        )
    return parser


def _cmd_serve(args) -> int:
    service = ChefService(
        ServiceConfig(
            socket_path=args.socket,
            workers=args.workers,
            max_sessions=args.max_sessions,
            max_time_budget=args.max_time_budget,
            max_ll_paths=args.max_ll_paths,
            max_solver_deadline_s=args.max_solver_deadline,
            trace=args.trace,
        )
    )
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def _streaming_client(args) -> ServiceClient:
    return ServiceClient(args.socket, timeout=args.timeout, retries=args.retries)


def _print_stream(args, client: ServiceClient, **kwargs) -> int:
    for event in client.run_events(**kwargs):
        if not args.quiet or event.get("event") == "RunFinished":
            json.dump(event, sys.stdout)
            sys.stdout.write("\n")
    return 0


def _cmd_run(args) -> int:
    config = {}
    for field_name in ("strategy", "seed", "time_budget", "max_ll_paths", "max_hl_paths"):
        value = getattr(args, field_name)
        if value is not None:
            config[field_name] = value
    if args.solver_deadline is not None:
        config["solver_deadline_s"] = args.solver_deadline
    if args.checkpoint_dir is not None:
        config["checkpoint_dir"] = args.checkpoint_dir
    kwargs = {"config": config}
    if args.clay_file:
        with open(args.clay_file, "r", encoding="utf-8") as fh:
            kwargs["clay"] = fh.read()
    else:
        if not args.language:
            print("--language is required with --file/--source", file=sys.stderr)
            return 2
        kwargs["language"] = args.language
        if args.file:
            with open(args.file, "r", encoding="utf-8") as fh:
                kwargs["source"] = fh.read()
        else:
            kwargs["source"] = args.source
    return _print_stream(args, _streaming_client(args), **kwargs)


def _cmd_resume(args) -> int:
    config = {}
    for field_name in ("time_budget", "max_ll_paths"):
        value = getattr(args, field_name)
        if value is not None:
            config[field_name] = value
    return _print_stream(
        args, _streaming_client(args), resume=args.checkpoint, config=config
    )


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "resume":
            return _cmd_resume(args)
        client = ServiceClient(args.socket)
        reply = getattr(client, args.command)()
        json.dump(reply, sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
        return 0
    except (ServiceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
