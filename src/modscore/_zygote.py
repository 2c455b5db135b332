"""Fork server for sandboxed runs: ``python FLAGS _zygote.py REQ REP``.

REQ and REP are the descriptors of its request and reply pipes. Each
request is one line, ``tmp \\0 wall_time \\0 memory \\0 output_cap``. For
each, the server forks one child that runs ``tmp/prog.py`` on
``tmp/stdin`` and writes ``tmp/stdout`` and ``tmp/stderr``. Two lines
answer it. The child writes the first, ``P <pid>``, before it isolates
itself: it leads a process group of that id once it is isolated, so a
client whose server dies mid-run, even at the hands of the program, can
still kill the run. The server writes the second,
``<returncode> <timed_out 0|1>``, the return code as ``subprocess``
reports it, or ``E <message>`` when the child could not be isolated.
Before that reply, the server kills the child's group, so nothing the
run started outlives it, unless it left the group with ``setsid``, and
then reaps the child, so the reply follows the reap. At the end of its
requests, the server runs its ``atexit`` handlers and leaves by ``os._exit``.

``sandbox._Zygote`` runs it as a script, started by ``sandbox._python``,
so it uses only the standard library, and keeps its imports few, because
every run inherits its state. No module of the package imports it; the
tests' fresh-interpreter reference imports it for ``limit``.

A child ends the way a ``python FLAGS prog.py`` process does, in the order
the interpreter's exit path takes: ``SystemExit`` codes and messages, an
uncaught exception's traceback with status 1, then waiting for
non-daemon threads, ``atexit`` handlers and the stdio flush (status 120
if it fails). It then leaves by ``os._exit`` without finalizing the
objects the program left alive: a finalizing exit touches every object
and so copies most of the pages the child shares with the zygote, which
costs several times the run itself.
"""

import atexit
import builtins
import os
import resource
import signal
import sys

# Recursion depth below the program's module frame that a fresh
# interpreter does not have: the frames of this module, serve and _child,
# and the call to exec. The child's recursion limit is raised by as much,
# so a program recurses exactly as deep as it would in a fresh interpreter.
_DEPTH_BELOW_PROGRAM = 4

_running = None  # pid of the child being waited for
_timed_out = False


def _expire(signum, frame):
    global _timed_out
    _timed_out = True
    # The child's own group once it has called setsid; the pid alone
    # before that, when it has no children yet.
    for kill in (os.killpg, os.kill):
        try:
            kill(_running, signal.SIGKILL)
        except ProcessLookupError:
            pass


def limit(memory: int, output_cap: int, wall_time: float):
    """A new session and the run's rlimits; the tests' reference runs it before exec."""
    os.setsid()
    resource.setrlimit(resource.RLIMIT_AS, (memory, memory))
    resource.setrlimit(resource.RLIMIT_FSIZE, (output_cap, output_cap))
    cpu = max(1, int(wall_time) + 1)
    resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu + 1))


def _isolate(tmp: bytes, memory: int, output_cap: int, wall_time: float):
    limit(memory, output_cap, wall_time)
    os.chdir(tmp)
    for target, name, flags in (
        (0, "stdin", os.O_RDONLY),
        (1, "stdout", os.O_WRONLY | os.O_CREAT | os.O_TRUNC),
        (2, "stderr", os.O_WRONLY | os.O_CREAT | os.O_TRUNC),
    ):
        fd = os.open(name, flags, 0o644)
        os.dup2(fd, target)
        os.close(fd)
    with open("prog.py", "rb") as handle:
        return handle.read()


def _child(tmp: bytes, memory: int, output_cap: int, wall_time: float, replies: int,
           report: int):
    """Runs in the forked child and never returns."""
    try:
        # before the program can run, so a client whose zygote it kills
        # still holds the pid of the run
        os.write(replies, b"P %d\n" % os.getpid())
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        source = _isolate(tmp, memory, output_cap, wall_time)
    except BaseException as exc:
        os.write(report, f"{type(exc).__name__}: {exc}".encode("utf-8", "replace"))
        os._exit(127)
    # Closes the zygote's pipes and `report`: EOF on it tells the zygote
    # that isolation is in place.
    os.closerange(3, os.sysconf("SC_OPEN_MAX"))

    path = os.path.join(os.getcwd(), "prog.py")
    main = type(sys)("__main__")
    main.__file__ = path
    main.__cached__ = None
    main.__annotations__ = {}
    main.__builtins__ = builtins
    main.__loader__ = sys.modules["_frozen_importlib_external"].SourceFileLoader(
        "__main__", path)
    sys.modules["__main__"] = main
    sys.argv = ["prog.py"]
    sys.orig_argv = sys.orig_argv[:-3] + ["prog.py"]  # the zygote's interpreter flags
    sys.setrecursionlimit(sys.getrecursionlimit() + _DEPTH_BELOW_PROGRAM)
    try:
        exec(compile(source, path, "exec", dont_inherit=True), vars(main))
        status = 0
    except SystemExit as exc:
        status = _exit_status(exc.code)
    except BaseException as exc:
        # As the interpreter reports it: without the frames of this file.
        sys.excepthook(type(exc), exc, exc.__traceback__.tb_next)
        status = 1
    os._exit(_finalize(status) & 0xFF)


def _exit_status(code) -> int:
    if code is None:
        return 0
    if isinstance(code, int):
        return code
    if sys.stderr is not None:
        print(code, file=sys.stderr)
    return 1


def _finalize(status: int) -> int:
    threading = sys.modules.get("threading")
    if threading is not None:
        threading._shutdown()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if not getattr(stream, "closed", True):
            try:
                stream.flush()
            except Exception as exc:
                status = 120
                if stream is sys.stdout:  # reported as an unraisable error
                    print(f"Exception ignored in: {stream!r}", file=sys.stderr)
                    sys.excepthook(type(exc), exc, exc.__traceback__.tb_next)
    return status


def serve(requests: int, replies: int):
    global _running, _timed_out
    signal.signal(signal.SIGALRM, _expire)
    with open(requests, "rb", closefd=False) as stream:
        for line in stream:
            tmp, wall_time, memory, output_cap = line.rstrip(b"\n").split(b"\0")
            wall_time = float(wall_time)
            report_r, report_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    atexit._clear()
                    _child(tmp, int(memory), int(output_cap), wall_time, replies, report_w)
                finally:  # e.g. a program's sys.excepthook that raises
                    os._exit(1)
            os.close(report_w)
            _running, _timed_out = pid, False
            signal.setitimer(signal.ITIMER_REAL, wall_time)
            error = b""
            while chunk := os.read(report_r, 4096):
                error += chunk
            # Wait without reaping: until the reap, the pid is not free and
            # still names the group, which outlives its exited leader while
            # members remain. So the group is killed before the reap, and the
            # reply comes after it: a client that reads it holds no live pid.
            info = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            signal.setitimer(signal.ITIMER_REAL, 0)
            try:
                os.killpg(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
            os.close(report_r)
            if error:
                reply = b"E " + error.replace(b"\n", b" ")
            else:
                code = info.si_status if info.si_code == os.CLD_EXITED else -info.si_status
                reply = f"{code} {int(_timed_out)}".encode()
            os.write(replies, reply + b"\n")


if __name__ == "__main__":
    serve(int(sys.argv[1]), int(sys.argv[2]))
    atexit._run_exitfuncs()
    os._exit(0)  # sooner than finalizing the interpreter
