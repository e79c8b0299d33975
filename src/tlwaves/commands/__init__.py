"""The command bodies, one module per ``tlwaves`` subcommand, loaded by ``cli.main`` after the parse.

Each module's ``execute(args)`` runs its command and returns the exit code.
Besides its own module a command loads ``tables`` (the output files) and,
if it has settings, ``runconfig`` (its run and memory budget); no module
here imports ``tlwaves.cli``, which ``python -m tlwaves.cli`` runs as
``__main__`` and would compile a second time.
"""
