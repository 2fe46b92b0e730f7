"""``python -m ietwords``: the ``ietwords`` command without installing."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
